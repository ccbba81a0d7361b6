module xlupc/benchmark

go 1.22

require xlupc v0.0.0

replace xlupc => ../
