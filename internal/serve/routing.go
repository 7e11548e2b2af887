package serve

// RoutingKey returns the placement identity of a request: the digest of
// its normalized (defaults applied) document, the key each replica's
// quarantine and response cache already file it under, minus the route
// prefix. The fleet router feeds it to its rendezvous hash, so every repeat
// of one document — on either route — lands on the replica that answered
// it before.
//
// The key is computed without resolving the workload: no plan, no program
// and no recipe lookup. A hostile-sized document costs the router one
// digest; the replica's admission caps refuse it (DESIGN.md §13).
//
// The function never mutates its argument and never fails; routing must
// stay total even for documents a replica will refuse.
func RoutingKey(req *Request) string {
	r := *req // defaults are applied to a copy
	r.applyDefaults()
	return requestKey(&r)
}
