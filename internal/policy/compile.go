package policy

import (
	"slices"
	"strings"
)

// Compiled is the precompiled release view of one policy state: the secret
// name/value pairs sorted once, and every service's command line,
// environment, and injection files with $$NAME variables already
// substituted. The TMS hot paths (application attestation §IV-A, secret
// retrieval Fig 12) build a Compiled once per stored revision and then
// serve requests from it, instead of re-walking the policy and
// re-substituting per request.
//
// A Compiled is immutable after Compile returns and safe for concurrent
// use. Accessors that return maps return fresh copies (snapshot-safe), so
// a caller mutating its release configuration can never reach back into a
// shared snapshot.
type Compiled struct {
	// secrets is sorted by name, names unique; Secret binary-searches it.
	// Pairs in a slice hold the same entries in well under half the memory
	// of a Go map, which pays for the encoded release body the core's
	// policy snapshot keeps beside this view (DESIGN.md §8).
	secrets  []secretPair
	services map[string]*CompiledService
}

type secretPair struct {
	name, value string
}

// CompiledService is one service's release configuration with all secret
// substitution done. Map-valued content is private behind copying
// accessors; the string fields are immutable and safe to share.
type CompiledService struct {
	// Command is the command line with secrets substituted.
	Command string
	// StrictMode echoes the service's strict flag.
	StrictMode bool

	environment    map[string]string
	injectionFiles map[string]string
}

// Compile builds the release view of p. The policy must not be mutated
// afterwards (Compile is meant for decoded snapshots the caller treats as
// immutable); the Compiled holds no references into p's maps — every
// substituted value is a fresh string.
func Compile(p *Policy) *Compiled {
	// The map lives only as long as Compile: Substitute wants one.
	secrets := p.SecretValues()
	c := &Compiled{
		secrets:  sortedSecrets(p.Secrets),
		services: make(map[string]*CompiledService, len(p.Services)),
	}
	for i := range p.Services {
		svc := &p.Services[i]
		cs := &CompiledService{
			Command:     Substitute(svc.Command, secrets),
			StrictMode:  svc.StrictMode,
			environment: make(map[string]string, len(svc.Environment)),
		}
		for k, v := range svc.Environment {
			cs.environment[k] = Substitute(v, secrets)
		}
		if len(svc.InjectionFiles) > 0 {
			cs.injectionFiles = make(map[string]string, len(svc.InjectionFiles))
			for _, f := range svc.InjectionFiles {
				cs.injectionFiles[f.Path] = Substitute(f.Template, secrets)
			}
		}
		c.services[svc.Name] = cs
	}
	return c
}

// sortedSecrets returns the policy's secrets as pairs sorted by name. Of
// secrets sharing a name the last one wins, as in SecretValues (Validate
// refuses such a policy; Compile does not depend on it having run): the
// pairs are laid out last to first, so the stable sort puts the winner at
// the head of its run, which is the one Compact keeps.
func sortedSecrets(secrets []Secret) []secretPair {
	pairs := make([]secretPair, len(secrets))
	for i, s := range secrets {
		pairs[len(secrets)-1-i] = secretPair{name: s.Name, value: s.Value}
	}
	slices.SortStableFunc(pairs, func(a, b secretPair) int { return strings.Compare(a.name, b.name) })
	return slices.CompactFunc(pairs, func(a, b secretPair) bool { return a.name == b.name })
}

// Service returns the compiled release configuration of one service.
func (c *Compiled) Service(name string) (*CompiledService, bool) {
	cs, ok := c.services[name]
	return cs, ok
}

// Secrets returns the secrets as a fresh map (copy-on-release: callers own
// the result and may mutate it freely).
func (c *Compiled) Secrets() map[string]string {
	out := make(map[string]string, len(c.secrets))
	for _, s := range c.secrets {
		out[s.name] = s.value
	}
	return out
}

// Secret returns one secret value.
func (c *Compiled) Secret(name string) (string, bool) {
	i, ok := slices.BinarySearchFunc(c.secrets, name, func(s secretPair, name string) int {
		return strings.Compare(s.name, name)
	})
	if !ok {
		return "", false
	}
	return c.secrets[i].value, true
}

// Environment returns a fresh copy of the substituted environment. Always
// non-nil, matching the shape attestation has always released.
func (s *CompiledService) Environment() map[string]string {
	return copyStringMap(s.environment, false)
}

// InjectionFiles returns a fresh copy of the substituted injection files,
// or nil when the service has none.
func (s *CompiledService) InjectionFiles() map[string]string {
	return copyStringMap(s.injectionFiles, true)
}

// copyStringMap copies m; nilEmpty selects nil (rather than an empty map)
// for empty input.
func copyStringMap(m map[string]string, nilEmpty bool) map[string]string {
	if len(m) == 0 && nilEmpty {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
