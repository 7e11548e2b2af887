package serve

import (
	"context"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/recipe"
)

// RoutingKey returns the content-based placement identity of a request —
// what the fleet router feeds its rendezvous hash so a warm cache key
// always lands on the replica that owns it.
//
// For a built-in application the key IS the runcache content address
// (runcache.KeyFor, served by the recipe table) of the request's top run: the same digest the replica's
// cache files the simulation under, so two documents that normalize to the
// same analysis (procs omitted vs 32, s0 omitted vs the app default) route
// to the same replica and hit the same warm entry. User-submitted program
// specs and documents that fail to resolve fall back to a digest of the
// normalized document — still deterministic, still evenly spread, but
// deliberately computed WITHOUT building the program: a hostile spec is
// priced by admission on the replica, never constructed by the router
// (DESIGN.md §13).
//
// The function never mutates its argument and never fails; routing must
// stay total even for documents a replica will refuse.
func RoutingKey(req *Request) string {
	r := *req // defaults are applied to a copy
	r.applyDefaults()
	if r.App != "" && r.Program == nil && r.Procs >= 1 && r.Procs&(r.Procs-1) == 0 {
		switch r.Machine {
		case "scaled", "origin":
			if app, err := apps.ByName(r.App); err == nil {
				cfg := configFor(r.Machine)
				if plan, err := campaign.NewPlan(app, cfg, r.Procs, r.S0); err == nil {
					e, _ := recipe.Default.Resolve(context.Background(), recipe.ForApp(app, cfg, r.Procs, plan.S0))
					if e.Err == nil {
						return e.Key.String()
					}
				}
			}
		}
	}
	return "doc:" + requestKey(&r)
}
