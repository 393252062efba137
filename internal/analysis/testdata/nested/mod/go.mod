module nested

go 1.24
