// CSCW: the paper's Figure 2 as a running application.
//
// A shared whiteboard is assembled from four components spread over
// three nodes:
//
//	server      — "whiteboard" (application logic: Board port, emits
//	              StrokeAdded events)
//	workstation — "display" (paint functions; fixed to its host) and two
//	              replaceable GUI parts that consume StrokeAdded events
//	              and draw through the Display port
//	pda         — a thin client with nothing installed: it uses the
//	              Board interface remotely
//
// Every arrow of Fig. 2 is a port connection or event link declared in
// the application assembly; GUI parts belong to the same component model
// as the rest of the application and are replaced at run time by
// re-deploying with a different version requirement.
//
// Run with: go run ./examples/cscw
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"corbalc"
	"corbalc/internal/assembly"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/events"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
	"corbalc/internal/xmldesc"
)

const (
	canvasW = 48
	canvasH = 10
)

// displayInstance provides painting functions for one physical screen.
type displayInstance struct {
	component.Base
	mu   sync.Mutex
	grid [canvasH][canvasW]byte
}

func (di *displayInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port != "graphics" {
		return component.ErrNoSuchPort
	}
	switch op {
	case "plot":
		x, err := args.ReadLong()
		if err != nil {
			return err
		}
		y, err := args.ReadLong()
		if err != nil {
			return err
		}
		ch, err := args.ReadChar()
		if err != nil {
			return err
		}
		di.mu.Lock()
		if x >= 0 && int(x) < canvasW && y >= 0 && int(y) < canvasH {
			di.grid[y][x] = ch
		}
		di.mu.Unlock()
		return nil
	case "render":
		di.mu.Lock()
		var sb strings.Builder
		for _, row := range di.grid {
			for _, c := range row {
				if c == 0 {
					c = '.'
				}
				sb.WriteByte(c)
			}
			sb.WriteByte('\n')
		}
		di.mu.Unlock()
		reply.WriteString(sb.String())
		return nil
	}
	return orb.BadOperation()
}

// guiPart draws strokes on the display; v1 renders '*', v2 renders the
// stroke index digit (the "enhanced presentation" replacement).
type guiPart struct {
	component.Base
	glyphDigits bool
	mu          sync.Mutex
	strokes     int
}

func (g *guiPart) ConsumeEvent(port string, ev events.Event) {
	if port != "stroke" {
		return
	}
	d := cdr.NewDecoder(ev.Data, cdr.LittleEndian)
	x, err := d.ReadLong()
	if err != nil {
		return
	}
	y, err := d.ReadLong()
	if err != nil {
		return
	}
	g.mu.Lock()
	g.strokes++
	glyph := byte('*')
	if g.glyphDigits {
		glyph = byte('0' + g.strokes%10)
	}
	g.mu.Unlock()
	disp, err := g.Ctx().UsePort("graphics")
	if err != nil {
		return
	}
	_ = disp.InvokeContext(context.Background(), "plot", func(e *cdr.Encoder) {
		e.WriteLong(x)
		e.WriteLong(y)
		e.WriteChar(glyph)
	}, nil)
}

func (g *guiPart) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port == "widget" && op == "strokes" {
		g.mu.Lock()
		n := g.strokes
		g.mu.Unlock()
		reply.WriteLong(int32(n))
		return nil
	}
	return orb.BadOperation()
}

// boardInstance is the application logic: clients add strokes, the board
// publishes them as events for whatever GUI parts are subscribed.
type boardInstance struct {
	component.Base
	mu      sync.Mutex
	strokes int
}

func (b *boardInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port != "board" {
		return component.ErrNoSuchPort
	}
	switch op {
	case "add_stroke":
		x, err := args.ReadLong()
		if err != nil {
			return err
		}
		y, err := args.ReadLong()
		if err != nil {
			return err
		}
		b.mu.Lock()
		b.strokes++
		b.mu.Unlock()
		payload := cdr.NewEncoder(cdr.LittleEndian)
		payload.WriteLong(x)
		payload.WriteLong(y)
		return b.Ctx().Emit("stroke_out", payload.Bytes())
	case "count":
		b.mu.Lock()
		n := b.strokes
		b.mu.Unlock()
		reply.WriteLong(int32(n))
		return nil
	}
	return orb.BadOperation()
}

func specs() (display, gui1, gui2, board *component.Spec) {
	display = &component.Spec{
		Name: "display", Version: "1.0.0", Entrypoint: "cscw/display.New",
		Mobility: "fixed", // the screen belongs to its workstation
		IDL: map[string]string{"idl/display.idl": `module cscw {
  interface Display { void plot(in long x, in long y, in char glyph); string render(); };
};`},
	}
	display.Provide("graphics", "IDL:cscw/Display:1.0")

	mkGUI := func(ver string) *component.Spec {
		s := &component.Spec{Name: "gui-strokes", Version: ver, Entrypoint: "cscw/gui.New-" + ver}
		s.Provide("widget", "IDL:cscw/GUIPart:1.0")
		s.Use("graphics", "IDL:cscw/Display:1.0", false)
		s.Consume("stroke", "IDL:cscw/StrokeAdded:1.0", true)
		return s
	}
	gui1, gui2 = mkGUI("1.0.0"), mkGUI("2.0.0")

	board = &component.Spec{
		Name: "whiteboard", Version: "1.0.0", Entrypoint: "cscw/board.New",
		IDL: map[string]string{"idl/board.idl": `module cscw {
  interface Board { void add_stroke(in long x, in long y); long count(); };
};`},
	}
	board.Provide("board", "IDL:cscw/Board:1.0")
	board.Emit("stroke_out", "IDL:cscw/StrokeAdded:1.0")
	return
}

func main() {
	impls := component.NewRegistry()
	impls.Register("cscw/display.New", func() component.Instance { return &displayInstance{} })
	impls.Register("cscw/gui.New-1.0.0", func() component.Instance { return &guiPart{} })
	impls.Register("cscw/gui.New-2.0.0", func() component.Instance { return &guiPart{glyphDigits: true} })
	impls.Register("cscw/board.New", func() component.Instance { return &boardInstance{} })

	opts := corbalc.Options{Impls: impls, UpdateInterval: 25 * time.Millisecond}
	server := corbalc.NewPeer("server", opts)
	ws := corbalc.NewPeer("workstation", opts)
	pdaOpts := opts
	pdaOpts.Profile = node.PDAProfile()
	pda := corbalc.NewPeer("pda", pdaOpts)
	defer server.Close()
	defer ws.Close()
	defer pda.Close()

	net := simnet.New(simnet.Link{Latency: 500 * time.Microsecond})
	must(net.Attach("server", server.Node.ORB()))
	must(net.Attach("workstation", ws.Node.ORB()))
	must(net.Attach("pda", pda.Node.ORB()))
	must(server.Bootstrap())
	must(ws.Join(server.Contact()))
	must(pda.Join(server.Contact()))

	dispSpec, gui1Spec, gui2Spec, boardSpec := specs()
	install(ws, dispSpec)
	install(ws, gui1Spec)
	install(ws, gui2Spec)
	install(server, boardSpec)
	fmt.Println("installed: display+gui on workstation, whiteboard on server; pda has nothing")

	// The Fig. 2 application: the whiteboard app window is two GUI parts
	// sharing one display; the application core runs wherever the
	// network put it.
	app := &assembly.Assembly{
		Name: "whiteboard-app",
		Instances: []assembly.InstanceDecl{
			{Name: "screen", Component: "display"},
			{Name: "part1", Component: "gui-strokes", Version: "1.*"},
			{Name: "core", Component: "whiteboard"},
		},
		Connections: []assembly.Connection{
			{From: "part1", FromPort: "graphics", To: "screen", ToPort: "graphics"},
		},
		EventLinks: []assembly.EventLink{
			{From: "core", FromPort: "stroke_out", To: "part1", ToPort: "stroke"},
		},
	}
	waitVisible(pda, "component:whiteboard")
	waitVisible(ws, "component:display")

	dep, err := assembly.Deploy(context.Background(), ws.Engine, ws.Node.ORB(), app)
	if err != nil {
		log.Fatal(err)
	}
	for inst, pl := range dep.Placements {
		fmt.Printf("  placed %-7s -> %s (%s)\n", inst, pl.Node, pl.ComponentID)
	}

	// The PDA (thin client) uses the Board interface remotely.
	boardRef := resolve(pda, "IDL:cscw/Board:1.0")
	for i := 0; i < 8; i++ {
		x, y := int32(4+i*5), int32(1+i)
		must(boardRef.InvokeContext(context.Background(), "add_stroke", func(e *cdr.Encoder) {
			e.WriteLong(x)
			e.WriteLong(y)
		}, nil))
	}
	fmt.Println("pda added 8 strokes through the remote Board port")
	time.Sleep(300 * time.Millisecond) // let events cross the bridge

	screen, err := ws.Engine.ProvidePort(context.Background(), dep.Placements["screen"], "graphics")
	must(err)
	fmt.Println("\nworkstation display (gui-strokes 1.x draws '*'):")
	fmt.Print(render(ws, screen))

	// Presentation replacement (§3.1): redeploy the app requiring GUI
	// part 2.x — same model, enhanced rendering, no other change.
	dep.Teardown()
	app.Instances[1].Version = "2.*"
	dep2, err := assembly.Deploy(context.Background(), ws.Engine, ws.Node.ORB(), app)
	must(err)
	defer dep2.Teardown()
	boardRef = resolve(pda, "IDL:cscw/Board:1.0")
	for i := 0; i < 8; i++ {
		must(boardRef.InvokeContext(context.Background(), "add_stroke", func(e *cdr.Encoder) {
			e.WriteLong(int32(4 + i*5))
			e.WriteLong(int32(8 - i))
		}, nil))
	}
	time.Sleep(300 * time.Millisecond)
	screen2, err := ws.Engine.ProvidePort(context.Background(), dep2.Placements["screen"], "graphics")
	must(err)
	fmt.Println("\nafter replacing the GUI part with version 2.x (digits):")
	fmt.Print(render(ws, screen2))
}

func install(p *corbalc.Peer, s *component.Spec) {
	c, err := s.Build()
	must(err)
	_, err = p.Node.InstallComponent(c)
	must(err)
}

func waitVisible(p *corbalc.Peer, key string) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if offers, err := p.Agent.Query(context.Background(), key, "*"); err == nil && len(offers) > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Fatalf("%s never became visible", key)
}

func resolve(p *corbalc.Peer, repoID string) *orb.ObjectRef {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ref, err := p.Engine.Resolve(context.Background(), xmldesc.Port{Kind: xmldesc.PortUses, Name: "u", RepoID: repoID})
		if err == nil {
			return p.Node.ORB().NewRef(ref)
		}
		if time.Now().After(deadline) {
			log.Fatalf("resolve %s: %v", repoID, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func render(p *corbalc.Peer, screen *ior.IOR) string {
	ref := p.Node.ORB().NewRef(screen)
	var out string
	must(ref.InvokeContext(context.Background(), "render", nil, func(d *cdr.Decoder) error {
		var e error
		out, e = d.ReadString()
		return e
	}))
	return out
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
