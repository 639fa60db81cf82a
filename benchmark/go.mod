module batchzk/benchmark

go 1.22

require batchzk v0.0.0

replace batchzk => ../
