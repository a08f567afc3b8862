// Admin control plane: the authenticated /admin endpoints that turn a
// running front's topology into something operable — peers join and leave
// without a restart.
//
//	POST   /admin/peers      {"addr":"host:port"}
//	                         dial + fresh /modelz handshake, admit into the
//	                         fleet (the next chunk's placement sees it)
//	DELETE /admin/peers/{id} drain the peer's in-flight chunks, then remove
//	                         it from the fleet and the registry
//	GET    /admin/topology   shards, per-peer health + windows,
//	                         registry entries
//
// The API mounts only when -admin-token is set; every request must carry
// the token (Authorization: Bearer <tok> or X-Admin-Token: <tok>).
// Request bodies go through the strict engine decoder (fuzzed by
// FuzzAdminRequest) before any topology mutation happens.
package main

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"time"

	"percival/internal/engine"
	"percival/internal/serve"
)

// newInstanceID mints the daemon's per-process identity, advertised via
// /modelz so dialing proxies (and this daemon's own dialPeers) can detect
// a peer address that loops back to this process.
func newInstanceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// an unreadable entropy source leaves self-dial detection off
		// rather than taking the daemon down
		log.Printf("instance id: %v (self-dial detection disabled)", err)
		return ""
	}
	return hex.EncodeToString(b[:])
}

// adminAPI carries the handles the control plane mutates.
type adminAPI struct {
	token     string
	reg       *engine.Registry
	fleet     *engine.Fleet // nil when the daemon serves locally
	srv       *serve.Server
	localID   string
	drainWait time.Duration
	dialTmpl  engine.RemoteOptions // per-peer dial knobs from the flags
}

// mount registers the admin routes.
func (a *adminAPI) mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /admin/peers", a.auth(a.addPeer))
	mux.HandleFunc("DELETE /admin/peers/{id}", a.auth(a.removePeer))
	mux.HandleFunc("GET /admin/topology", a.auth(a.topology))
}

// auth gates a handler on the admin token (constant-time compare; the
// token is a credential, not a routing key).
func (a *adminAPI) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok := r.Header.Get("X-Admin-Token")
		if tok == "" {
			tok = strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		}
		if subtle.ConstantTimeCompare([]byte(tok), []byte(a.token)) != 1 {
			http.Error(w, "admin token required", http.StatusUnauthorized)
			return
		}
		next(w, r)
	}
}

func adminJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func adminError(w http.ResponseWriter, status int, err error) {
	adminJSON(w, status, map[string]string{"error": err.Error()})
}

// addPeer dials the requested address with the daemon's peer knobs — the
// same fresh /modelz handshake -peers performs at startup, so a peer that
// is unreachable, resolution-mismatched, off wire v3, without a wire
// listener or this daemon itself is rejected before it ever sees traffic.
func (a *adminAPI) addPeer(w http.ResponseWriter, r *http.Request) {
	req, err := engine.DecodeAdminPeerRequest(r.Body)
	if err != nil {
		adminError(w, http.StatusBadRequest, err)
		return
	}
	if a.fleet == nil {
		adminJSON(w, http.StatusConflict, map[string]string{
			"error": "daemon is not fronting a fleet (start with -peers to enable live membership)"})
		return
	}
	rb, err := engine.NewRemote(req.Addr, a.dialTmpl)
	if err != nil {
		adminError(w, http.StatusBadGateway, err)
		return
	}
	if a.localID != "" && rb.InstanceID() == a.localID {
		rb.Close()
		adminJSON(w, http.StatusBadRequest, map[string]string{
			"error": "peer " + rb.Peer() + " is this daemon (self-dial rejected)"})
		return
	}
	if err := a.reg.Register(rb.Name(), rb); err != nil {
		rb.Close()
		adminError(w, http.StatusConflict, err)
		return
	}
	if err := a.fleet.AddPeer(rb); err != nil {
		a.reg.Deregister(rb.Name())
		rb.Close()
		adminError(w, http.StatusConflict, err)
		return
	}
	log.Printf("admin: added peer %s", rb.Name())
	adminJSON(w, http.StatusOK, map[string]string{"peer": rb.Peer(), "name": rb.Name()})
}

// removePeer drains and removes the peer named by {id} ("host:port"; URL
// path segments cannot carry the scheme). The drain quiesces in-flight
// chunks before the peer leaves the fleet; the registry entry goes with it.
func (a *adminAPI) removePeer(w http.ResponseWriter, r *http.Request) {
	if a.fleet == nil {
		adminJSON(w, http.StatusConflict, map[string]string{
			"error": "daemon is not fronting a fleet"})
		return
	}
	id := r.PathValue("id")
	rb, err := a.fleet.DrainRemovePeer(id, a.drainWait)
	if err != nil {
		status := http.StatusNotFound
		if !strings.Contains(err.Error(), "has no peer") {
			status = http.StatusConflict
		}
		adminError(w, status, err)
		return
	}
	if err := a.reg.Deregister(rb.Name()); err != nil {
		// the fleet no longer routes to it either way; keep the registry
		// discrepancy visible instead of failing the removal
		log.Printf("admin: removed peer %s but deregister failed: %v", rb.Name(), err)
	}
	log.Printf("admin: drained and removed peer %s", rb.Peer())
	adminJSON(w, http.StatusOK, map[string]string{"removed": rb.Peer(), "name": rb.Name()})
}

// adminTopology is the GET /admin/topology document. It names no served
// engine: /healthz's engine is the one place that does.
type adminTopology struct {
	Shards   int                     `json:"shards"`
	Backends []string                `json:"backends"`
	Peers    []engine.PeerHealthInfo `json:"peers,omitempty"`
	Windows  []engine.WindowStat     `json:"windows,omitempty"`
}

// topology snapshots the dispatch topology: what is registered and how
// healthy the fleet's peers are.
func (a *adminAPI) topology(w http.ResponseWriter, r *http.Request) {
	top := adminTopology{
		Shards:   a.srv.Shards(),
		Backends: a.reg.Names(),
	}
	if a.fleet != nil {
		top.Peers = a.fleet.PeerHealth()
		top.Windows = a.fleet.WindowStats()
	}
	adminJSON(w, http.StatusOK, top)
}
