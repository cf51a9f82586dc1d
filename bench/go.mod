module stair/bench

go 1.24

require stair v0.0.0

replace stair => ../
