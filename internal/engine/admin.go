package engine

// Admin control-plane request surface: the typed bodies of percival-serve's
// POST /admin/peers and POST /admin/canary, with strict decoders. The
// decoders live here (not in the daemon) because they guard a privileged,
// network-reachable boundary: unknown fields, oversized bodies, trailing
// garbage and out-of-range knobs are all rejected before any topology
// mutation happens, and FuzzAdminRequest hammers exactly this layer.

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

// DecodeAdminPeerRequest strictly decodes and validates a peer-add body.
func DecodeAdminPeerRequest(r io.Reader) (AdminPeerRequest, error) {
	var req AdminPeerRequest
	if err := decodeAdminBody(r, &req); err != nil {
		return AdminPeerRequest{}, fmt.Errorf("engine: admin peer request: %w", err)
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

// AdminCanaryRequest is the POST /admin/canary body: start an
// agreement-gated rollout of a registered model version (CanaryOptions
// semantics; zero fields take the BeginCanary defaults).
type AdminCanaryRequest struct {
	Candidate  string  `json:"candidate"`
	Fraction   float64 `json:"fraction,omitempty"`
	Floor      float64 `json:"floor,omitempty"`
	HoldWindow int     `json:"hold_window,omitempty"`
	MinSamples int     `json:"min_samples,omitempty"`
}

// adminMaxWindow caps the canary ring so a hostile hold_window cannot
// allocate unbounded memory through the admin surface.
const adminMaxWindow = 1 << 20

// DecodeAdminCanaryRequest strictly decodes and validates a canary body.
func DecodeAdminCanaryRequest(r io.Reader) (AdminCanaryRequest, error) {
	var req AdminCanaryRequest
	if err := decodeAdminBody(r, &req); err != nil {
		return AdminCanaryRequest{}, fmt.Errorf("engine: admin canary request: %w", err)
	}
	req.Candidate = strings.TrimSpace(req.Candidate)
	if req.Candidate == "" {
		return AdminCanaryRequest{}, fmt.Errorf("engine: admin canary request: candidate required")
	}
	if req.Fraction < 0 || req.Fraction > 1 {
		return AdminCanaryRequest{}, fmt.Errorf("engine: admin canary request: fraction %v outside [0,1]", req.Fraction)
	}
	if req.Floor < 0 || req.Floor > 1 {
		return AdminCanaryRequest{}, fmt.Errorf("engine: admin canary request: floor %v outside [0,1]", req.Floor)
	}
	if req.HoldWindow < 0 || req.HoldWindow > adminMaxWindow {
		return AdminCanaryRequest{}, fmt.Errorf("engine: admin canary request: hold_window %d outside [0,%d]", req.HoldWindow, adminMaxWindow)
	}
	if req.MinSamples < 0 || req.MinSamples > adminMaxWindow {
		return AdminCanaryRequest{}, fmt.Errorf("engine: admin canary request: min_samples %d outside [0,%d]", req.MinSamples, adminMaxWindow)
	}
	return req, nil
}

// decodeAdminBody is the shared strict-JSON core: bounded read, unknown
// fields rejected, exactly one value, no trailing garbage.
func decodeAdminBody(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, adminMaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request object")
	}
	return nil
}
