module checkmate/bench

go 1.22

require checkmate v0.0.0

replace checkmate => ../
