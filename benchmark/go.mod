module versadep/benchmark

go 1.22

require versadep v0.0.0

replace versadep => ../
