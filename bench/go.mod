module adminrefine/bench

go 1.24

require adminrefine v0.0.0

replace adminrefine => ../
