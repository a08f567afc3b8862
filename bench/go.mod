module percival/bench

go 1.22

require percival v0.0.0

replace percival => ../
