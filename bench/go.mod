module streamapprox/bench

go 1.24

require streamapprox v0.0.0

replace streamapprox => ../
