module voxel/benchmark

go 1.22

require voxel v0.0.0

replace voxel => ../
