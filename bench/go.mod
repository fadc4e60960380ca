module palaemon/bench

go 1.24

require palaemon v0.0.0

replace palaemon => ../
