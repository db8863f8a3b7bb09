package flat

// ErrPanicked is what the waiters of a memo build that panicked get.
var ErrPanicked = errPanicked
