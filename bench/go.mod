module github.com/webdep/webdep/bench

go 1.22

require github.com/webdep/webdep v0.0.0

replace github.com/webdep/webdep => ../
