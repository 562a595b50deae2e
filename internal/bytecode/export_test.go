package bytecode

// Unfused returns a copy of p carrying the lowered but unfused register
// form: the baseline against which the differential tests check the
// fusion pass.
func Unfused(p *Program) (*Program, error) {
	op, err := lower(p)
	if err != nil {
		return nil, err
	}
	q := *p
	q.Opt = op
	return &q, nil
}
