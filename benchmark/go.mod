module corbalc/benchmark

go 1.23

require corbalc v0.0.0

replace corbalc => ../
