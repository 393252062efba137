// Package component implements the central abstraction of CORBA-LC
// (paper §2.1): components as binary independent units with explicitly
// declared dependencies and offerings. A Component binds together an
// opened package (internal/cpkg), its two descriptor dimensions
// (internal/xmldesc) and its parsed IDL (internal/idl), and defines the
// run-time contracts — Instance, Context — that component
// implementations and containers agree on (§2.2), plus the runtime-
// mutable PortSet that realises the reflection architecture's "the set
// of external properties of a component is not fixed and may change at
// run-time" (§2.4.2).
package component

import (
	"fmt"

	"corbalc/internal/cpkg"
	"corbalc/internal/idl"
	"corbalc/internal/version"
	"corbalc/internal/xmldesc"
)

// ID identifies a component: its package name plus version. Several
// versions of one component may coexist in a repository.
type ID struct {
	Name    string
	Version version.V
}

func (id ID) String() string { return id.Name + "-" + id.Version.String() }

// ParseID parses "name-1.2.3".
func ParseID(s string) (ID, error) {
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '-' {
			v, err := version.Parse(s[i+1:])
			if err != nil {
				continue
			}
			return ID{Name: s[:i], Version: v}, nil
		}
	}
	return ID{}, fmt.Errorf("component: cannot parse id %q", s)
}

// Component is an installed component: descriptors, IDL and the package
// it arrived in.
type Component struct {
	pkg     *cpkg.Package
	sp      *xmldesc.SoftPkg
	ct      *xmldesc.ComponentType
	idlRepo *idl.Repository
}

// Load opens a package into a Component, parsing its IDL sources into a
// fresh interface repository.
func Load(pkg *cpkg.Package) (*Component, error) {
	c := &Component{
		pkg:     pkg,
		sp:      pkg.SoftPkg(),
		ct:      pkg.ComponentType(),
		idlRepo: idl.NewRepository(),
	}
	sources, err := pkg.IDLSources()
	if err != nil {
		return nil, err
	}
	for path, src := range sources {
		if err := c.idlRepo.ParseString(path, src); err != nil {
			return nil, fmt.Errorf("component %s: %w", c.sp.Name, err)
		}
	}
	return c, nil
}

// LoadBytes opens raw archive bytes into a Component.
func LoadBytes(data []byte) (*Component, error) {
	pkg, err := cpkg.Open(data)
	if err != nil {
		return nil, err
	}
	return Load(pkg)
}

// ID returns the component's identity.
func (c *Component) ID() ID {
	return ID{Name: c.sp.Name, Version: c.sp.ParsedVersion()}
}

// Name returns the component's package name.
func (c *Component) Name() string { return c.sp.Name }

// Package returns the underlying archive.
func (c *Component) Package() *cpkg.Package { return c.pkg }

// SoftPkg returns the static-dimension descriptor.
func (c *Component) SoftPkg() *xmldesc.SoftPkg { return c.sp }

// Type returns the dynamic-dimension descriptor.
func (c *Component) Type() *xmldesc.ComponentType { return c.ct }

// IDL returns the component's parsed interface repository.
func (c *Component) IDL() *idl.Repository { return c.idlRepo }

// Movable reports whether the binary may be fetched to another host.
func (c *Component) Movable() bool { return c.sp.Movable() }
