package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"time"

	"dpq/internal/serve"
)

// dpqdMain is the daemon whose deployment the network workloads mirror.
// Its flag defaults are read from this file rather than re-typed here, so
// a change to a dpqd default moves the benchmark's cluster with it.
const dpqdMain = "cmd/dpqd/main.go"

// flagDefaults maps a dpqd flag name to its default value: an int64, a
// uint64, a time.Duration, a string or a bool.
type flagDefaults map[string]any

// exportedDefaults are the package-level identifiers dpqd's flag defaults
// may name; each resolves to the exported constant itself.
var exportedDefaults = map[string]int64{
	"serve.DefaultLeaseTTL":     int64(serve.DefaultLeaseTTL),
	"serve.DefaultMaxInFlight":  int64(serve.DefaultMaxInFlight),
	"serve.DefaultMaxConnQueue": int64(serve.DefaultMaxConnQueue),
	"time.Nanosecond":           int64(time.Nanosecond),
	"time.Microsecond":          int64(time.Microsecond),
	"time.Millisecond":          int64(time.Millisecond),
	"time.Second":               int64(time.Second),
	"time.Minute":               int64(time.Minute),
}

// loadFlagDefaults parses the flag definitions (flag.Int, flag.Duration,
// ...) of a Go main file and evaluates their default expressions.
func loadFlagDefaults(path string) (flagDefaults, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("parse dpqd flags: %w", err)
	}
	out := flagDefaults{}
	var evalErr error
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 || evalErr != nil {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		v, err := evalDefault(call.Args[1])
		if err != nil {
			evalErr = fmt.Errorf("dpqd flag -%s: %w", name, err)
			return false
		}
		switch sel.Sel.Name {
		case "Int":
			out[name] = v.(int64)
		case "Uint64":
			out[name] = uint64(v.(int64))
		case "Duration":
			out[name] = time.Duration(v.(int64))
		case "String", "Bool":
			out[name] = v
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

func evalDefault(e ast.Expr) (any, error) {
	switch e := e.(type) {
	case *ast.BasicLit:
		switch e.Kind {
		case token.INT:
			return strconv.ParseInt(e.Value, 0, 64)
		case token.STRING:
			return strconv.Unquote(e.Value)
		}
	case *ast.Ident:
		switch e.Name {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
	case *ast.ParenExpr:
		return evalDefault(e.X)
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			if v, ok := exportedDefaults[pkg.Name+"."+e.Sel.Name]; ok {
				return v, nil
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.MUL {
			x, err := evalDefault(e.X)
			if err != nil {
				return nil, err
			}
			y, err := evalDefault(e.Y)
			if err != nil {
				return nil, err
			}
			xi, ok1 := x.(int64)
			yi, ok2 := y.(int64)
			if ok1 && ok2 {
				return xi * yi, nil
			}
		}
	}
	return nil, fmt.Errorf("cannot evaluate default %T", e)
}

func (d flagDefaults) int(name string) int {
	v, ok := d[name].(int64)
	if !ok {
		panic("dpqd has no int flag -" + name)
	}
	return int(v)
}

func (d flagDefaults) uint64(name string) uint64 {
	v, ok := d[name].(uint64)
	if !ok {
		panic("dpqd has no uint64 flag -" + name)
	}
	return v
}

func (d flagDefaults) dur(name string) time.Duration {
	v, ok := d[name].(time.Duration)
	if !ok {
		panic("dpqd has no duration flag -" + name)
	}
	return v
}
