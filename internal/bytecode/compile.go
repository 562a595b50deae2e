package bytecode

import (
	"fmt"

	"repro/internal/lang/ast"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// Compile translates a type-checked program to bytecode. Every labeled
// command is prefixed with a SETLBL carrying its resolved [er,ew], so
// the VM's timing-label register always matches the command being
// executed — the §8.2 compilation scheme. The result is linked to its
// register form (see link), which fails only for an expression nested
// deeper than the VM's register file.
func Compile(prog *ast.Program, res *types.Result) (*Program, error) {
	c := &compiler{
		out:     &Program{Lat: res.Lat, NumMitigates: prog.NumMitigates},
		scalars: make(map[string]int64),
		arrays:  make(map[string]int64),
	}
	// The data offsets are the tree-walking semantics' layout, so the
	// VM touches the same data addresses.
	layout := mem.NewLayout(prog)
	for _, d := range prog.Decls {
		off := layout.Addr(d.Name) - mem.DataBase
		if d.IsArray {
			c.arrays[d.Name] = int64(len(c.out.ArrayNames))
			c.out.ArrayNames = append(c.out.ArrayNames, d.Name)
			c.out.ArraySizes = append(c.out.ArraySizes, d.Size)
			c.out.ArrayOffsets = append(c.out.ArrayOffsets, off)
		} else {
			c.scalars[d.Name] = int64(len(c.out.ScalarNames))
			c.out.ScalarNames = append(c.out.ScalarNames, d.Name)
			c.out.ScalarOffsets = append(c.out.ScalarOffsets, off)
		}
	}
	if err := c.cmd(prog.Body); err != nil {
		return nil, err
	}
	c.emit(Instr{Op: OpHalt})
	if err := link(c.out); err != nil {
		return nil, err
	}
	return c.out, nil
}

type compiler struct {
	out     *Program
	scalars map[string]int64
	arrays  map[string]int64
}

func (c *compiler) emit(i Instr) int {
	c.out.Code = append(c.out.Code, i)
	return len(c.out.Code) - 1
}

// patch sets the jump target of a previously emitted branch.
func (c *compiler) patch(at int, target int) {
	c.out.Code[at].A = int64(target)
}

func (c *compiler) here() int { return len(c.out.Code) }

// setlbl emits the timing-label register write for a labeled command.
// The command's AST node ID rides along in C so the VM can charge the
// command fetch at the same code address as the tree-walking semantics
// (mem.CodeAddr).
func (c *compiler) setlbl(cmd ast.Cmd, lab *ast.Labels) error {
	if !lab.Resolved() {
		return fmt.Errorf("bytecode: unresolved labels (run types.Check first)")
	}
	c.emit(Instr{Op: OpSetLbl, A: int64(lab.RL.ID()), B: int64(lab.WL.ID()), C: int64(cmd.ID())})
	return nil
}

func (c *compiler) cmd(cmd ast.Cmd) error {
	switch cm := cmd.(type) {
	case *ast.Seq:
		if err := c.cmd(cm.First); err != nil {
			return err
		}
		return c.cmd(cm.Second)

	case *ast.Skip:
		if err := c.setlbl(cm, &cm.Lab); err != nil {
			return err
		}
		c.emit(Instr{Op: OpNop})
		return nil

	case *ast.Assign:
		if err := c.setlbl(cm, &cm.Lab); err != nil {
			return err
		}
		if err := c.expr(cm.X); err != nil {
			return err
		}
		idx, ok := c.scalars[cm.Name]
		if !ok {
			return fmt.Errorf("bytecode: unknown scalar %q", cm.Name)
		}
		c.emit(Instr{Op: OpStore, A: idx})
		return nil

	case *ast.Store:
		if err := c.setlbl(cm, &cm.Lab); err != nil {
			return err
		}
		if err := c.expr(cm.Idx); err != nil {
			return err
		}
		if err := c.expr(cm.X); err != nil {
			return err
		}
		idx, ok := c.arrays[cm.Name]
		if !ok {
			return fmt.Errorf("bytecode: unknown array %q", cm.Name)
		}
		c.emit(Instr{Op: OpStoreIdx, A: idx})
		return nil

	case *ast.Sleep:
		if err := c.setlbl(cm, &cm.Lab); err != nil {
			return err
		}
		if err := c.expr(cm.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpSleep})
		return nil

	case *ast.If:
		if err := c.setlbl(cm, &cm.Lab); err != nil {
			return err
		}
		if err := c.expr(cm.Cond); err != nil {
			return err
		}
		jz := c.emit(Instr{Op: OpJz})
		if err := c.cmd(cm.Then); err != nil {
			return err
		}
		jend := c.emit(Instr{Op: OpJmp})
		c.patch(jz, c.here())
		if err := c.cmd(cm.Else); err != nil {
			return err
		}
		c.patch(jend, c.here())
		return nil

	case *ast.While:
		top := c.here()
		if err := c.setlbl(cm, &cm.Lab); err != nil {
			return err
		}
		if err := c.expr(cm.Cond); err != nil {
			return err
		}
		jz := c.emit(Instr{Op: OpJz})
		if err := c.cmd(cm.Body); err != nil {
			return err
		}
		c.emit(Instr{Op: OpJmp, A: int64(top)})
		c.patch(jz, c.here())
		return nil

	case *ast.Mitigate:
		if err := c.setlbl(cm, &cm.Lab); err != nil {
			return err
		}
		if err := c.expr(cm.Init); err != nil {
			return err
		}
		if !cm.Level.Valid() {
			return fmt.Errorf("bytecode: unresolved mitigation level (run types.Check first)")
		}
		c.emit(Instr{Op: OpMitEnter, A: int64(cm.MitID), B: int64(cm.Level.ID())})
		if err := c.cmd(cm.Body); err != nil {
			return err
		}
		c.emit(Instr{Op: OpMitExit, A: int64(cm.MitID)})
		return nil
	}
	return fmt.Errorf("bytecode: unknown command %T", cmd)
}

func (c *compiler) expr(e ast.Expr) error {
	switch ex := e.(type) {
	case *ast.IntLit:
		c.emit(Instr{Op: OpPush, A: ex.Value})
		return nil
	case *ast.Var:
		idx, ok := c.scalars[ex.Name]
		if !ok {
			return fmt.Errorf("bytecode: unknown scalar %q", ex.Name)
		}
		c.emit(Instr{Op: OpLoad, A: idx})
		return nil
	case *ast.Index:
		if err := c.expr(ex.Idx); err != nil {
			return err
		}
		idx, ok := c.arrays[ex.Name]
		if !ok {
			return fmt.Errorf("bytecode: unknown array %q", ex.Name)
		}
		c.emit(Instr{Op: OpLoadIdx, A: idx})
		return nil
	case *ast.Unary:
		if err := c.expr(ex.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpUnop, A: int64(ex.Op)})
		return nil
	case *ast.Binary:
		if err := c.expr(ex.X); err != nil {
			return err
		}
		if err := c.expr(ex.Y); err != nil {
			return err
		}
		c.emit(Instr{Op: OpBinop, A: int64(ex.Op)})
		return nil
	}
	return fmt.Errorf("bytecode: unknown expression %T", e)
}
