package engine

import (
	"fmt"
	"sync"
)

// Registry names the backends a service knows about — model versions,
// engine variants — and designates one as the default. Selecting a backend
// by name with fallback to the default is how callers express engine
// policy ("int8 if the parity gate passed, fp32 otherwise") without inline
// branching at every call site. The daemon registers its dialed peers here
// too, so /metrics and /healthz can count each one's frames and errors.
type Registry struct {
	mu    sync.RWMutex
	m     map[string]Backend
	names []string // registration order, for stable listings
	def   string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]Backend)}
}

// Register adds a named backend. The first registration becomes the
// default. Duplicate names are an error — versioned models get versioned
// names ("fp32@2").
func (r *Registry) Register(name string, b Backend) error {
	if name == "" {
		return fmt.Errorf("engine: empty backend name")
	}
	if b == nil {
		return fmt.Errorf("engine: nil backend %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("engine: backend %q already registered", name)
	}
	r.m[name] = b
	r.names = append(r.names, name)
	if r.def == "" {
		r.def = name
	}
	return nil
}

// Deregister removes a named backend without closing it (the caller owns
// the shutdown — a fleet drain wants the transport alive until in-flight
// chunks quiesce). The default cannot be deregistered: dispatch paths
// lean on Select's fallback never being nil.
func (r *Registry) Deregister(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; !ok {
		return fmt.Errorf("engine: backend %q not registered", name)
	}
	if r.def == name {
		return fmt.Errorf("engine: cannot deregister the default backend %q", name)
	}
	delete(r.m, name)
	for i, n := range r.names {
		if n == name {
			r.names = append(r.names[:i], r.names[i+1:]...)
			break
		}
	}
	return nil
}

// Get returns the backend registered under name.
func (r *Registry) Get(name string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.m[name]
	return b, ok
}

// Select returns the backend registered under name, falling back to the
// default when name is empty or unknown — the lenient lookup dispatch
// paths want (a stale model name must not take the service down).
func (r *Registry) Select(name string) Backend {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if b, ok := r.m[name]; ok {
		return b
	}
	return r.m[r.def]
}

// SetDefault designates the backend new traffic routes to.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; !ok {
		return fmt.Errorf("engine: cannot default to unregistered backend %q", name)
	}
	r.def = name
	return nil
}

// Default returns the default backend (nil for an empty registry).
func (r *Registry) Default() Backend {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[r.def]
}

// DefaultName returns the default backend's name ("" when empty).
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

// Names lists the registered backends in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}
