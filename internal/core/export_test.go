package core

// DecideOver is Decide with step 2 walking candidates (nil = every device)
// instead of Pool.Fitting's.
var DecideOver = decide

// The SharePodSet replacement backoff's bounds.
const (
	ReplaceBackoffBase = replaceBackoffBase
	ReplaceBackoffCap  = replaceBackoffCap
)
