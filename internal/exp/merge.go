package exp

// Normalized returns the config with its execution-only fields cleared:
// shard coordinates, worker parallelism, and the interrupt channel. Two
// configs that normalize equal describe the same sweep — the same trials
// with the same seeds producing the same results — even if they were run
// on different shards, at different parallelism, or under different
// cancellation plumbing. A merged aggregate is stamped with the normalized
// (defaulted) config, which is exactly what an unsharded sequential run
// stamps.
func (c Config) Normalized() Config {
	c = c.withDefaults()
	c.ShardIndex = 0
	c.ShardCount = 0
	c.Parallelism = 0
	c.Interrupt = nil
	return c
}
