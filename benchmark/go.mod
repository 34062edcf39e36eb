module inca/benchmark

go 1.22

require inca v0.0.0

replace inca => ../
