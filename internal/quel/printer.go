package quel

import (
	"fmt"
	"strings"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/value"
)

// Print renders a parsed program back to surface syntax. Parsing the
// output yields a structurally identical program (round-trip property,
// tested), which the shell uses to echo normalized statements.
func Print(prog *Program) string {
	var b strings.Builder
	for _, st := range prog.Stmts {
		switch s := st.(type) {
		case *RangeStmt:
			fmt.Fprintf(&b, "range of %s is %s\n", s.Var, s.Relation)
		case *SubscribeStmt:
			fmt.Fprintf(&b, "subscribe %s ", s.Name)
			printRetrieveBody(&b, s.Retrieve)
		case *RetrieveStmt:
			b.WriteString("retrieve ")
			if s.Into != "" {
				fmt.Fprintf(&b, "into %s ", s.Into)
			}
			printRetrieveBody(&b, s)
		}
	}
	return b.String()
}

// printRetrieveBody renders the targets/valid/where tail shared by retrieve
// and subscribe statements.
func printRetrieveBody(b *strings.Builder, s *RetrieveStmt) {
	b.WriteString("(")
	for i, t := range s.Targets {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(printTarget(t))
	}
	b.WriteString(")")
	if s.HasValid {
		fmt.Fprintf(b, " valid from %s to %s", s.ValidFrom, s.ValidTo)
	}
	if !s.Where.True() {
		b.WriteString(" where " + printPred(s.Where))
	}
	b.WriteString("\n")
}

func printTarget(t Target) string {
	if t.IsAgg {
		return fmt.Sprintf("%s=%s(%s)", t.Name, t.Agg, t.From)
	}
	return fmt.Sprintf("%s=%s", t.Name, t.From)
}

func printPred(p algebra.Predicate) string {
	var parts []string
	for _, a := range p.Atoms {
		parts = append(parts, printOperand(a.L)+printCmp(a.Op)+printOperand(a.R))
	}
	for _, ta := range p.Temporal {
		name := ta.Rel.String()
		if ta.General {
			name = "overlap"
		}
		parts = append(parts, fmt.Sprintf("(%s %s %s)", ta.L, name, ta.R))
	}
	return strings.Join(parts, " and ")
}

func printCmp(op algebra.CmpOp) string {
	switch op {
	case algebra.EQ:
		return "="
	case algebra.NE:
		return "!="
	case algebra.LT:
		return "<"
	case algebra.LE:
		return "<="
	case algebra.GT:
		return ">"
	default:
		return ">="
	}
}

// printOperand renders an operand as the lexer reads it back: a string
// constant between bare quotes (the lexer has no escapes), a placeholder as
// $N.
func printOperand(o algebra.Operand) string {
	if o.Param > 0 {
		return fmt.Sprintf("$%d", o.Param)
	}
	if !o.IsConst {
		return o.Col.String()
	}
	switch o.Const.Kind() {
	case value.KindString:
		return `"` + o.Const.AsString() + `"`
	default:
		if o.Const.Kind() == value.KindTime && o.Const.AsTime() == interval.Forever {
			return "forever"
		}
		return o.Const.String()
	}
}
