module dvm/perf

go 1.22

require dvm v0.0.0

replace dvm => ../
