module trader/benchmark

go 1.24

require trader v0.0.0

replace trader => ../
