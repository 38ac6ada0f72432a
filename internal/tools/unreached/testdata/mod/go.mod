module example.test/mod

go 1.22
