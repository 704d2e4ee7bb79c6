package fabric

import (
	"fmt"
	"strings"

	"composable/internal/units"
)

// Dot renders the fabric as a Graphviz document: nodes grouped by kind,
// edges labeled with per-direction capacity and protocol. Useful for
// inspecting composed topologies (`composer -dot | dot -Tsvg`).
func (n *Network) Dot(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph fabric {\n  label=%q;\n  node [shape=box];\n", title)
	shapes := map[NodeKind]string{
		KindRootComplex: "doubleoctagon",
		KindSwitch:      "hexagon",
		KindHostAdapter: "component",
		KindGPU:         "box",
		KindNVMe:        "cylinder",
		KindNIC:         "cds",
		KindMemory:      "folder",
	}
	for _, node := range n.nodes {
		shape := shapes[node.Kind]
		if shape == "" {
			shape = "box"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", node.ID, node.Name, shape)
	}
	for _, l := range n.links {
		label := fmt.Sprintf("%s\\n%s", l.Protocol, units.BytesPerSec(l.CapAtoB))
		if l.CapAtoB != l.CapBtoA {
			label = fmt.Sprintf("%s\\n%s/%s", l.Protocol,
				units.BytesPerSec(l.CapAtoB), units.BytesPerSec(l.CapBtoA))
		}
		fmt.Fprintf(&b, "  n%d -- n%d [label=%q];\n", l.A, l.B, label)
	}
	b.WriteString("}\n")
	return b.String()
}
