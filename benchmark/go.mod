module lambdafs/benchmark

go 1.22

require lambdafs v0.0.0

replace lambdafs => ../
