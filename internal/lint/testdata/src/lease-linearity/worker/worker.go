package worker

import "fixture/queue"

// Stash outlives any single lease; parking a token here is the escape
// the rule exists to catch.
type Stash struct {
	Token string
}

// UseAfterComplete keeps using the token after consuming it.
func UseAfterComplete(c *queue.Client, j *queue.Job) {
	_ = c.Complete(j.ID, j.LeaseID)
	_ = c.Extend(j.ID, j.LeaseID) // want `used after being consumed`
}

// FailThenDone consumes in a terminating branch; the fall-through path
// still owns the token, so the completion below is clean.
func FailThenDone(c *queue.Client, j *queue.Job, failed bool) error {
	if failed {
		_ = c.Fail(j.ID, j.LeaseID, "boom")
		return nil
	}
	return c.Complete(j.ID, j.LeaseID)
}

// MaybeComplete consumes in a branch that falls through, so the token
// is dead on one path into the Extend below.
func MaybeComplete(c *queue.Client, j *queue.Job, done bool) {
	if done {
		_ = c.Complete(j.ID, j.LeaseID)
	}
	_ = c.Extend(j.ID, j.LeaseID) // want `used after being consumed by Client\.Complete`
}

// FailInElse consumes in a terminating else branch; the path that
// reaches the completion below still owns the token.
func FailInElse(c *queue.Client, j *queue.Job, ok bool) error {
	if ok {
		_ = c.Extend(j.ID, j.LeaseID)
	} else {
		_ = c.Fail(j.ID, j.LeaseID, "boom")
		return nil
	}
	return c.Complete(j.ID, j.LeaseID)
}

// TrackedLocal follows the token's linearity through a local variable.
func TrackedLocal(c *queue.Client, j *queue.Job) {
	token := j.LeaseID
	_ = c.Complete(j.ID, token)
	_ = c.Extend(j.ID, token) // want `used after being consumed`
}

// ExtendThenComplete is the healthy renew-then-finish sequence: Extend
// does not consume, so the later Complete is the token's single use.
func ExtendThenComplete(c *queue.Client, j *queue.Job) {
	_ = c.Extend(j.ID, j.LeaseID)
	_ = c.Complete(j.ID, j.LeaseID)
}

// Keep parks a token in a struct field that outlives the lease.
func Keep(s *Stash, j *queue.Job) {
	s.Token = j.LeaseID // want `stored into field`
}

// Index parks a token in a map.
func Index(m map[string]string, j *queue.Job) {
	m[j.ID] = j.LeaseID // want `stored into a map`
}

// Echo copies a token between the queue's own LeaseID slots — the
// blessed bookkeeping shape (minting, clearing, echoing into requests).
func Echo(dst *queue.Job, src *queue.Job) {
	dst.LeaseID = src.LeaseID
}

// Request mirrors the wire shape; a LeaseID key is the blessed echo.
type Request struct {
	LeaseID string
}

// Wire builds the consuming request — clean.
func Wire(j *queue.Job) Request {
	return Request{LeaseID: j.LeaseID}
}

// Record parks the token under a differently-named field.
type Record struct{ Token string }

// Leak stores the token into a composite literal field that is not the
// lease's own slot.
func Leak(j *queue.Job) Record {
	return Record{Token: j.LeaseID} // want `composite literal`
}

// Audit reuses a consumed token deliberately; the directive documents
// the exemption and exercises suppression.
func Audit(c *queue.Client, j *queue.Job) {
	_ = c.Complete(j.ID, j.LeaseID)
	//lint:ignore lease-linearity deliberate stale echo retained to exercise suppression
	_ = c.Extend(j.ID, j.LeaseID)
}
