package main

// Reference simulated outputs for DefaultSeed. Every run on that seed must
// reproduce them exactly — a change that only makes the program faster
// leaves them untouched. An operation whose output differs counts as
// failed. Regenerate them only with a change that means to alter the
// simulation, from the digest line a run prints.

var referenceReconfig = reconfigDigest{
	Loads:        96,
	KernelEvents: 1194762,
	SimPS:        164929346773,
	MaxErrPct:    0.10823370772139737,
	P99OpUS:      2746.12401,
	LatencySumUS: 80426.207509,
}

var referenceFleet = fleetDigest{
	KernelEvents: 9367141,
	Offered:      1000, Completed: 1000, Shed: 0, Failed: 0,
	Lost: 0, DeadlineMisses: 156, Reconfigs: 727,
	Hits: 543, Misses: 184, Evictions: 170,
	P99US:      28674.20787,
	MakespanPS: 4928797444370,
}

var referencePlan = planDigest{
	Chosen:       "3× zybo-z7-10 @140 MHz, round-robin, profile cache",
	Watts:        6.435312559721434,
	SimP99US:     6131.812372,
	Scored:       3072,
	Frontier:     465,
	Sims:         3,
	StockBest:    "5× zybo-z7-10 @100 MHz, round-robin, profile cache",
	OverBest:     "3× zybo-z7-10 @280 MHz, round-robin, profile cache",
	KernelEvents: 4160696,
}
