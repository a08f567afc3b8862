package engine

// Admin control-plane request surface: the typed body of percival-serve's
// POST /admin/peers, with a strict decoder. The decoder lives here (not in
// the daemon) because it guards a privileged, network-reachable boundary:
// unknown fields, oversized bodies, trailing garbage and unparseable
// addresses are all rejected before any topology mutation happens, and
// FuzzAdminRequest hammers exactly this layer.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strings"
)

// adminMaxBody bounds an admin request body; topology requests are tiny
// and an unbounded read on an authenticated-but-compromised channel is
// still a memory grenade.
const adminMaxBody = 64 << 10

// AdminPeerRequest is the POST /admin/peers body: dial this address and
// admit it into the fleet.
type AdminPeerRequest struct {
	// Addr is the peer address ("host:port" or a full http URL).
	Addr string `json:"addr"`
}

// DecodeAdminPeerRequest strictly decodes and validates a peer-add body:
// bounded read, unknown fields rejected, exactly one value, no trailing
// garbage, and an address that parses as host:port or an http(s) URL.
func DecodeAdminPeerRequest(r io.Reader) (AdminPeerRequest, error) {
	var req AdminPeerRequest
	dec := json.NewDecoder(io.LimitReader(r, adminMaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return AdminPeerRequest{}, fmt.Errorf("engine: admin peer request: %w", err)
	}
	if dec.More() {
		return AdminPeerRequest{}, fmt.Errorf("engine: admin peer request: trailing data after request object")
	}
	req.Addr = strings.TrimSpace(req.Addr)
	if req.Addr == "" {
		return AdminPeerRequest{}, fmt.Errorf("engine: admin peer request: addr required")
	}
	addr := req.Addr
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if u, err := url.Parse(addr); err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return AdminPeerRequest{}, fmt.Errorf("engine: admin peer request: invalid addr %q", req.Addr)
	}
	return req, nil
}
