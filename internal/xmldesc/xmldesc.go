// Package xmldesc implements the XML component descriptors of CORBA-LC.
//
// The paper (§2.1.1) describes component meta-data as XML files whose
// DTDs derive from the W3C Open Software Description (OSD) format, split
// across two dimensions:
//
//   - the *static* (binary package) dimension — SoftPkg: identity,
//     version, dependencies, per-platform implementations, mobility,
//     replication, aggregation, licensing and security properties; and
//   - the *dynamic* (component type) dimension — ComponentType: the
//     minimal set of ports (provided/used interfaces, emitted/consumed
//     events), factory life-cycle policy, required framework services
//     and QoS envelope.
//
// Both documents ship inside the component package (see internal/cpkg)
// next to the IDL files and binaries.
package xmldesc

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"corbalc/internal/version"
)

// SoftPkg is the static-dimension descriptor (softpkg.xml).
type SoftPkg struct {
	XMLName  xml.Name `xml:"softpkg"`
	Name     string   `xml:"name,attr"`
	Version  string   `xml:"version,attr"`
	Title    string   `xml:"title,omitempty"`
	Abstract string   `xml:"abstract,omitempty"`
	Author   Author   `xml:"author"`
	License  License  `xml:"license"`

	// Dependencies other than components: hardware, OS, ORB.
	Dependencies []Dependency `xml:"dependency"`

	// Implementations are the per-platform binaries inside the package.
	Implementations []Implementation `xml:"implementation"`

	// Descriptor points at the dynamic-dimension file in the archive.
	Descriptor FileRef `xml:"descriptor"`

	// IDLFiles lists the IDL files in the archive defining the
	// component's types and interfaces.
	IDLFiles []FileRef `xml:"idl"`

	// Static offerings/needs flags (paper §2.1.1).
	Mobility    string      `xml:"mobility,omitempty"`    // "movable" | "fixed"
	Replication string      `xml:"replication,omitempty"` // "none" | "stateless" | "coordinated"
	Aggregation Aggregation `xml:"aggregation"`
}

// Author identifies the component's producer.
type Author struct {
	Company string `xml:"company,omitempty"`
	Name    string `xml:"name,omitempty"`
	Webpage string `xml:"webpage,omitempty"`
}

// License carries the licensing / pay-per-use information.
type License struct {
	Href      string `xml:"href,attr,omitempty"`
	PayPerUse bool   `xml:"payperuse,attr,omitempty"`
	Text      string `xml:",chardata"`
}

// Dependency is a non-component prerequisite of the package.
type Dependency struct {
	Type    string `xml:"type,attr"` // "Component" | "ORB" | "OS" | "Processor"
	Name    string `xml:"name"`
	Version string `xml:"version,omitempty"` // requirement syntax, see internal/version
}

// Implementation is one per-platform binary variant.
type Implementation struct {
	ID        string  `xml:"id,attr"`
	OS        string  `xml:"os,omitempty"`        // e.g. "linux", "windows", "any"
	Processor string  `xml:"processor,omitempty"` // e.g. "amd64", "arm", "any"
	ORB       string  `xml:"orb,omitempty"`       // e.g. "corbalc"
	Code      CodeRef `xml:"code"`
}

// Matches reports whether the implementation suits a platform tuple;
// empty or "any" fields match everything.
func (im *Implementation) Matches(os, processor, orb string) bool {
	match := func(have, want string) bool {
		return have == "" || have == "any" || want == "" || have == want
	}
	return match(im.OS, os) && match(im.Processor, processor) && match(im.ORB, orb)
}

// CodeRef locates an implementation's binary inside the archive.
type CodeRef struct {
	Type       string  `xml:"type,attr"` // "DLL" | "SharedLibrary" | "Script" | "GoRegistered"
	File       FileRef `xml:"fileinarchive"`
	EntryPoint string  `xml:"entrypoint,omitempty"`
}

// FileRef names a file inside the package archive.
type FileRef struct {
	Name string `xml:"name,attr"`
}

// Aggregation declares data-parallel splitting support (paper §2.1.1,
// OMG aggregated computing).
type Aggregation struct {
	Splittable bool   `xml:"splittable,attr,omitempty"`
	Gather     string `xml:"gather,attr,omitempty"` // e.g. "concat", "sum", "custom"
}

// ComponentType is the dynamic-dimension descriptor (componenttype.xml).
type ComponentType struct {
	XMLName xml.Name `xml:"componenttype"`
	Name    string   `xml:"name,attr"`
	RepoID  string   `xml:"repoid,attr"`

	Ports     []Port       `xml:"ports>port"`
	Factory   Factory      `xml:"factory"`
	QoS       QoS          `xml:"qos"`
	Framework []ServiceReq `xml:"framework>service"`
}

// PortKind enumerates the port categories of §2.1.2.
type PortKind string

// Port kinds. Interfaces come in provided/used pairs; events in
// emitted/consumed pairs (publish/subscribe push channels).
const (
	PortProvides PortKind = "provides"
	PortUses     PortKind = "uses"
	PortEmits    PortKind = "emits"
	PortConsumes PortKind = "consumes"
)

// Port is one external communication point of the component type.
type Port struct {
	Kind PortKind `xml:"kind,attr"`
	Name string   `xml:"name,attr"`
	// RepoID is the interface repository ID (interface ports) or the
	// event type ID (event ports).
	RepoID string `xml:"repoid,attr"`
	// Optional marks a uses/consumes port the instance can run without.
	Optional bool `xml:"optional,attr,omitempty"`
	// Version constrains acceptable providers (requirement syntax).
	Version string `xml:"version,attr,omitempty"`
}

// Factory describes instance life-cycle management (§2.1.2: "a
// description of the life cycle of the instances ... which allows to
// automatically generate the factory code").
type Factory struct {
	// Lifecycle: "service" (one shared instance per node), "session"
	// (one instance per client connection), "process" (new instance per
	// create call).
	Lifecycle string `xml:"lifecycle,attr,omitempty"`
	// MaxInstances bounds concurrent instances per node (0 = unbounded).
	MaxInstances int `xml:"maxinstances,attr,omitempty"`
}

// QoS is the resource envelope of §2.1.2: minimum/maximum CPU and memory
// utilisation and minimum communication bandwidth.
type QoS struct {
	CPUMin       float64 `xml:"cpu>min,omitempty"`       // fraction of one CPU
	CPUMax       float64 `xml:"cpu>max,omitempty"`       // fraction of one CPU
	MemoryMinMB  int     `xml:"memory>min,omitempty"`    // MiB
	MemoryMaxMB  int     `xml:"memory>max,omitempty"`    // MiB
	BandwidthMin float64 `xml:"bandwidth>min,omitempty"` // Mbit/s to used ports
}

// ServiceReq names a framework service the instances require from their
// container (events, migration, replication, persistence-of-state, ...).
type ServiceReq struct {
	Name string `xml:"name,attr"`
}

// Errors returned by descriptor validation.
var (
	ErrInvalid = errors.New("xmldesc: invalid descriptor")
)

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// ParseSoftPkg decodes and validates a softpkg document.
func ParseSoftPkg(r io.Reader) (*SoftPkg, error) {
	var sp SoftPkg
	if err := xml.NewDecoder(r).Decode(&sp); err != nil {
		return nil, fmt.Errorf("xmldesc: softpkg: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate checks the structural rules of a softpkg descriptor.
func (sp *SoftPkg) Validate() error {
	if sp.Name == "" {
		return invalidf("softpkg name missing")
	}
	if strings.ContainsAny(sp.Name, "/\\ ") {
		return invalidf("softpkg name %q contains path or space characters", sp.Name)
	}
	if _, err := version.Parse(sp.Version); err != nil {
		return invalidf("softpkg %s: bad version %q", sp.Name, sp.Version)
	}
	if len(sp.Implementations) == 0 {
		return invalidf("softpkg %s: no implementations", sp.Name)
	}
	ids := make(map[string]bool)
	for i := range sp.Implementations {
		im := &sp.Implementations[i]
		if im.ID == "" {
			return invalidf("softpkg %s: implementation %d missing id", sp.Name, i)
		}
		if ids[im.ID] {
			return invalidf("softpkg %s: duplicate implementation id %q", sp.Name, im.ID)
		}
		ids[im.ID] = true
		if im.Code.File.Name == "" {
			return invalidf("softpkg %s: implementation %s has no code file", sp.Name, im.ID)
		}
	}
	for _, d := range sp.Dependencies {
		if d.Name == "" {
			return invalidf("softpkg %s: dependency with empty name", sp.Name)
		}
		if d.Version != "" {
			if _, err := version.ParseRequirement(d.Version); err != nil {
				return invalidf("softpkg %s: dependency %s: bad version requirement %q", sp.Name, d.Name, d.Version)
			}
		}
	}
	switch sp.Mobility {
	case "", "movable", "fixed":
	default:
		return invalidf("softpkg %s: mobility %q", sp.Name, sp.Mobility)
	}
	switch sp.Replication {
	case "", "none", "stateless", "coordinated":
	default:
		return invalidf("softpkg %s: replication %q", sp.Name, sp.Replication)
	}
	return nil
}

// ParsedVersion returns the package version (Validate guarantees it
// parses).
func (sp *SoftPkg) ParsedVersion() version.V {
	v, _ := version.Parse(sp.Version)
	return v
}

// FindImplementation returns the first implementation matching the
// platform tuple.
func (sp *SoftPkg) FindImplementation(os, processor, orb string) (*Implementation, bool) {
	for i := range sp.Implementations {
		if sp.Implementations[i].Matches(os, processor, orb) {
			return &sp.Implementations[i], true
		}
	}
	return nil, false
}

// Movable reports whether the component may be extracted from its host
// and fetched elsewhere (default true, per the network-as-repository
// model; "fixed" opts out).
func (sp *SoftPkg) Movable() bool { return sp.Mobility != "fixed" }

// Encode serialises the descriptor as indented XML.
func (sp *SoftPkg) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(sp); err != nil {
		return err
	}
	return enc.Close()
}

// ParseComponentType decodes and validates a componenttype document.
func ParseComponentType(r io.Reader) (*ComponentType, error) {
	var ct ComponentType
	if err := xml.NewDecoder(r).Decode(&ct); err != nil {
		return nil, fmt.Errorf("xmldesc: componenttype: %w", err)
	}
	if err := ct.Validate(); err != nil {
		return nil, err
	}
	return &ct, nil
}

// Validate checks the structural rules of a component type descriptor.
func (ct *ComponentType) Validate() error {
	if ct.Name == "" {
		return invalidf("componenttype name missing")
	}
	if !strings.HasPrefix(ct.RepoID, "IDL:") {
		return invalidf("componenttype %s: repoid %q not an IDL repository ID", ct.Name, ct.RepoID)
	}
	names := make(map[string]bool)
	for _, p := range ct.Ports {
		switch p.Kind {
		case PortProvides, PortUses, PortEmits, PortConsumes:
		default:
			return invalidf("componenttype %s: port %q has kind %q", ct.Name, p.Name, p.Kind)
		}
		if p.Name == "" {
			return invalidf("componenttype %s: unnamed port", ct.Name)
		}
		if names[p.Name] {
			return invalidf("componenttype %s: duplicate port %q", ct.Name, p.Name)
		}
		names[p.Name] = true
		if !strings.HasPrefix(p.RepoID, "IDL:") {
			return invalidf("componenttype %s: port %s: repoid %q", ct.Name, p.Name, p.RepoID)
		}
		if p.Optional && (p.Kind == PortProvides || p.Kind == PortEmits) {
			return invalidf("componenttype %s: port %s: only uses/consumes ports may be optional", ct.Name, p.Name)
		}
		if p.Version != "" {
			if _, err := version.ParseRequirement(p.Version); err != nil {
				return invalidf("componenttype %s: port %s: bad version %q", ct.Name, p.Name, p.Version)
			}
		}
	}
	switch ct.Factory.Lifecycle {
	case "", "service", "session", "process":
	default:
		return invalidf("componenttype %s: factory lifecycle %q", ct.Name, ct.Factory.Lifecycle)
	}
	if ct.Factory.MaxInstances < 0 {
		return invalidf("componenttype %s: negative maxinstances", ct.Name)
	}
	if ct.QoS.CPUMin < 0 || ct.QoS.CPUMax < 0 || ct.QoS.MemoryMinMB < 0 ||
		ct.QoS.MemoryMaxMB < 0 || ct.QoS.BandwidthMin < 0 {
		return invalidf("componenttype %s: negative QoS value", ct.Name)
	}
	if ct.QoS.CPUMax > 0 && ct.QoS.CPUMin > ct.QoS.CPUMax {
		return invalidf("componenttype %s: cpu min > max", ct.Name)
	}
	if ct.QoS.MemoryMaxMB > 0 && ct.QoS.MemoryMinMB > ct.QoS.MemoryMaxMB {
		return invalidf("componenttype %s: memory min > max", ct.Name)
	}
	return nil
}

// PortsOf returns the ports of the given kind, in declaration order.
func (ct *ComponentType) PortsOf(kind PortKind) []Port {
	var out []Port
	for _, p := range ct.Ports {
		if p.Kind == kind {
			out = append(out, p)
		}
	}
	return out
}

// Encode serialises the descriptor as indented XML.
func (ct *ComponentType) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(ct); err != nil {
		return err
	}
	return enc.Close()
}
