module bestjoin/bench

go 1.23

require bestjoin v0.0.0

replace bestjoin => ../
