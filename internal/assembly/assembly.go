// Package assembly implements CORBA-LC applications (paper §2.4.4):
// "applications are just special components ... they encapsulate the
// explicit rules to connect together certain components and their
// instances". An Assembly declares named instances of components and the
// port connections among them; deployment matches the declarations
// against network-running resources *at run time*, so the node hosting
// each instance is chosen when the application starts, not at
// design time.
package assembly

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"corbalc/internal/version"
)

// InstanceDecl declares one named instance of a component.
type InstanceDecl struct {
	Name      string `xml:"name,attr"`
	Component string `xml:"component,attr"`
	// Version is a requirement ("1.*", ">=2.0", ...; empty = any).
	Version string `xml:"version,attr,omitempty"`
}

// Connection wires a uses port to a provides port.
type Connection struct {
	From     string `xml:"from,attr"` // instance name
	FromPort string `xml:"fromport,attr"`
	To       string `xml:"to,attr"` // instance name
	ToPort   string `xml:"toport,attr"`
}

// EventLink routes an emits port's events to a consumes port's node.
type EventLink struct {
	From     string `xml:"from,attr"`
	FromPort string `xml:"fromport,attr"`
	To       string `xml:"to,attr"`
	ToPort   string `xml:"toport,attr"`
}

// Assembly is the application descriptor — the "bootstrap component"
// whose explicit dependencies the network satisfies at run time.
type Assembly struct {
	XMLName     xml.Name       `xml:"assembly"`
	Name        string         `xml:"name,attr"`
	Instances   []InstanceDecl `xml:"instance"`
	Connections []Connection   `xml:"connect"`
	EventLinks  []EventLink    `xml:"eventlink"`
}

// ErrInvalid reports a malformed assembly.
var ErrInvalid = errors.New("assembly: invalid")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Parse decodes and validates an assembly document.
func Parse(r io.Reader) (*Assembly, error) {
	var a Assembly
	if err := xml.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("assembly: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// Validate checks structural consistency.
func (a *Assembly) Validate() error {
	if a.Name == "" {
		return invalidf("assembly name missing")
	}
	if strings.ContainsAny(a.Name, "/ ") {
		return invalidf("assembly name %q contains '/' or space", a.Name)
	}
	if len(a.Instances) == 0 {
		return invalidf("assembly %s declares no instances", a.Name)
	}
	seen := make(map[string]bool)
	for _, inst := range a.Instances {
		if inst.Name == "" || inst.Component == "" {
			return invalidf("assembly %s: instance needs name and component", a.Name)
		}
		if seen[inst.Name] {
			return invalidf("assembly %s: duplicate instance %q", a.Name, inst.Name)
		}
		seen[inst.Name] = true
		if inst.Version != "" {
			if _, err := version.ParseRequirement(inst.Version); err != nil {
				return invalidf("assembly %s: instance %s: bad version %q", a.Name, inst.Name, inst.Version)
			}
		}
	}
	check := func(kind, from, fromPort, to, toPort string) error {
		if !seen[from] {
			return invalidf("assembly %s: %s references unknown instance %q", a.Name, kind, from)
		}
		if !seen[to] {
			return invalidf("assembly %s: %s references unknown instance %q", a.Name, kind, to)
		}
		if fromPort == "" || toPort == "" {
			return invalidf("assembly %s: %s %s->%s needs port names", a.Name, kind, from, to)
		}
		return nil
	}
	for _, c := range a.Connections {
		if err := check("connection", c.From, c.FromPort, c.To, c.ToPort); err != nil {
			return err
		}
	}
	for _, l := range a.EventLinks {
		if err := check("event link", l.From, l.FromPort, l.To, l.ToPort); err != nil {
			return err
		}
	}
	return nil
}
