package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startTimeout bounds process start → /healthz ready. LoadFile and the
// start-up pair build take well under two seconds on the reference host.
const startTimeout = 30 * time.Second

// proc is one running proxserve process. exited closes once the
// process has been reaped.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	args   []string
	log    string
	exited chan struct{}
}

// fleet is the set of server processes of one workload; base is the
// address queries go to (the only process, or the coordinator).
type fleet struct {
	procs []*proc
	base  string
}

// freeAddr probes a free loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts one proxserve on a probed port without waiting for it.
func spawn(bin, dir, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args = append(args, "-http", addr)
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A harness killed outright (SIGKILL, panic) must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, addr: addr, args: args, log: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a signalled child's exit status is not an error here
		close(p.exited)
	}()
	return p, nil
}

// waitHealthy polls /healthz until it answers 200, the process dies or
// startTimeout passes.
func (p *proc) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, startTimeout)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("exited before becoming healthy")
		case <-ctx.Done():
			return fmt.Errorf("never became healthy: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop terminates the process and waits for it: SIGTERM first (an idle
// proxserve drains at once), SIGKILL if it lingers.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-p.exited:
	case <-time.After(3 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// peakRSSMB reads the process's VmHWM, its peak resident set.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// startFleet starts the workload's processes and returns once every
// /healthz is ready. The elapsed time is the per-workload half of setup_s.
func startFleet(ctx context.Context, bin, dir string, w *workload, indexPath string) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	start := func(name string, args ...string) error {
		p, err := spawn(bin, dir, name, args...)
		if err != nil {
			return err
		}
		f.procs = append(f.procs, p)
		f.base = p.addr
		return nil
	}
	if !w.Fleet {
		args := []string{"-index", indexPath, "-fn", w.Family}
		if w.Cache > 0 {
			args = append(args, "-cache", strconv.Itoa(w.Cache))
		}
		if err := start("proxserve", args...); err != nil {
			return nil, err
		}
	} else {
		// The smoke_remote.sh topology: two doc-partition shard processes
		// and a strict-quorum coordinator. As there, only the coordinator
		// gets -fn: queries carry their kernel spec over the wire.
		for i := 0; i < 2; i++ {
			if err := start(fmt.Sprintf("shard%d", i), "-index", indexPath,
				"-serve-shard", "-shard-of", fmt.Sprintf("%d/2", i)); err != nil {
				return nil, err
			}
		}
		if err := f.waitHealthy(ctx); err != nil {
			return nil, err
		}
		if err := start("coordinator", "-shards-at", f.procs[0].addr+","+f.procs[1].addr, "-fn", w.Family); err != nil {
			return nil, err
		}
	}
	if err := f.waitHealthy(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// waitHealthy waits for every process started so far.
func (f *fleet) waitHealthy(ctx context.Context) error {
	for _, p := range f.procs {
		if err := p.waitHealthy(ctx); err != nil {
			out, _ := os.ReadFile(p.log) // best effort: the log only decorates the error
			return fmt.Errorf("%s: %w\n%s", strings.Join(p.args, " "), err, out)
		}
	}
	return nil
}

func (f *fleet) stop() {
	for _, p := range f.procs {
		p.stop()
	}
}

func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// commandLines is the provenance record of how the servers were started.
func (f *fleet) commandLines() []string {
	out := make([]string, len(f.procs))
	for i, p := range f.procs {
		out[i] = "proxserve " + strings.Join(p.args, " ")
	}
	return out
}
