// Package cluster is the horizontal-scaling tier over internal/server:
// Router consistent-hashes each request's client identity onto one of
// N ordinary server.Server backends and reverse-proxies the request to
// that owner, so per-client session state — the only mutable serving
// state the paper's model needs — stays local to one backend while
// every backend serves the same published model.
//
// The split follows from the serving architecture. A published model
// snapshot is immutable (a single relocatable arena []byte), so
// replication is "ship the arena bytes, swap the pointer": backends
// follow a publisher over the snapshot channel (prefetchd
// -snapshot-addr, internal/maintain) and each swaps its own atomic
// pointer — no backend-local training, no coordination through the
// router. Everything per-client (session contexts, outstanding hint
// records, hit reports) is keyed by the identity the router hashes on,
// so routing by that identity makes each client's serving history
// whole on exactly one backend: hints are issued and scored where the
// client's context lives, and client hit reports (X-Prefetch-Report)
// land on the backend that issued the hints. That is why Router over N
// backends reproduces a single server's hint accounting exactly (see
// assertMatchesSingleNode in equivalence_test.go).
//
// Identity is resolved once, at the router: the router applies its own
// trust policy to the incoming hop, then stamps the resolved identity
// on the forwarded request. Backends are booted trusting only the
// router's host (prefetchd -router-addr), so a client cannot smuggle a
// forged X-Client-ID past the router to poison another client's
// session (see server.IdentityPolicy).
//
// Membership is fixed at construction. A dead backend answers 502 and
// is counted per shard in pbppm_cluster_backend_errors_total; recovery
// is the backend coming back, not a ring change.
package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"

	"pbppm/internal/obs"
	"pbppm/internal/server"
)

// routingErrHelp documents pbppm_cluster_routing_errors_total.
const routingErrHelp = "Requests the routing tier could not deliver to a shard, by reason: " +
	"backend (reverse-proxy round trip to the owner failed)."

// Router is the routing tier for shards running as separate processes:
// it consistent-hashes client identity over a static set of HTTP
// backends (prefetchd instances booted with -router-addr pointing back
// at this router's host so they trust its identity stamp) and
// reverse-proxies each request to the owner.
type Router struct {
	identity    server.IdentityPolicy
	ring        *ring
	backends    map[int]http.Handler
	requests    map[int]*obs.Counter
	backendErrs map[int]*obs.Counter
	backendErr  *obs.Counter
	log         *slog.Logger
}

// RouterConfig parameterizes a standalone HTTP router.
type RouterConfig struct {
	// Backends are the shard base URLs, e.g. "http://10.0.0.11:8080";
	// at least one is required. Backend i gets shard ID i on the ring.
	Backends []string
	// Replicas is the virtual-node count per backend; zero selects the
	// package default.
	Replicas int
	// TrustedPeers is the router's own ingress trust policy — peers
	// allowed to assert X-Client-ID on requests entering the router
	// (e.g. an outer load balancer). Empty trusts any peer, the right
	// default when cooperating clients connect straight to the router.
	TrustedPeers []string
	// Obs registers the router's per-shard request and backend-error
	// counters and its routing-error counter; nil keeps them
	// process-internal.
	Obs *obs.Registry
	// Logger receives backend-failure lines, tagged component=router;
	// nil discards them.
	Logger *slog.Logger
}

// NewRouter builds an HTTP router over fixed backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one backend")
	}
	rt := &Router{
		identity:    server.NewIdentityPolicy(cfg.TrustedPeers),
		backends:    make(map[int]http.Handler, len(cfg.Backends)),
		requests:    make(map[int]*obs.Counter, len(cfg.Backends)),
		backendErrs: make(map[int]*obs.Counter, len(cfg.Backends)),
		backendErr: cfg.Obs.Counter("pbppm_cluster_routing_errors_total", routingErrHelp,
			obs.Label{Name: "reason", Value: "backend"}),
		log: obs.Component(cfg.Logger, "router"),
	}
	ids := make([]int, 0, len(cfg.Backends))
	for i, b := range cfg.Backends {
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad backend URL %q", b)
		}
		proxy := httputil.NewSingleHostReverseProxy(u)
		// The default ErrorHandler logs to the process-global logger and
		// writes a bare 502 with no body or accounting. A dead shard is
		// an operational event the routing tier must surface: count it
		// per shard, log it with the backend address, and answer a
		// well-formed 502 the client can distinguish from the shard's
		// own errors.
		shard, host := i, u.Host
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			rt.backendErr.Inc()
			rt.backendErrs[shard].Inc()
			rt.log.Warn("backend round trip failed",
				"shard", shard, "backend", host, "path", r.URL.Path, "error", err)
			http.Error(w, fmt.Sprintf("cluster: shard %d backend unavailable", shard),
				http.StatusBadGateway)
		}
		rt.backends[i] = proxy
		rt.requests[i] = cfg.Obs.Counter("pbppm_shard_requests_total",
			"Requests routed to each shard by the consistent-hash ring.",
			obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		rt.backendErrs[i] = cfg.Obs.Counter("pbppm_cluster_backend_errors_total",
			"Reverse-proxy round trips that failed per shard backend (connection refused, reset, timeout); each also answered 502 and counted under routing_errors{reason=\"backend\"}.",
			obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		ids = append(ids, i)
	}
	rt.ring = newRing(ids, cfg.Replicas)
	return rt, nil
}

// ServeHTTP resolves identity, stamps it, and proxies to the owner.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	client := rt.identity.ClientOf(r)
	// NewRouter puts at least one backend on the ring, so every key
	// has an owner.
	id, _ := rt.ring.owner(client)
	r.Header.Set(server.HeaderClientID, client)
	rt.requests[id].Inc()
	rt.backends[id].ServeHTTP(w, r)
}
