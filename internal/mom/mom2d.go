package mom

import (
	"fmt"
	"math"
	"math/cmplx"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/greens"
	"roughsim/internal/surface"
)

// System2D is the assembled 2M×2M system of the 2D SWM variant: the
// surface is uniform along y, the problem reduces to a line integral
// equation over one period of the profile with the 1-D-periodic 2-D
// Green's function (Fig. 6 of the paper).
type System2D struct {
	N      int
	Matrix *cmplxmat.Matrix
	RHS    []complex128
	Step   float64
}

// Assemble2D builds the dense system for a profile realization.
func Assemble2D(p *surface.Profile, par Params, opt Options) *System2D {
	opt = opt.withDefaults()
	m := p.M
	h := p.Step()
	fx := p.Gradient()
	fxx := p.SecondDeriv()

	g1 := greens.NewPeriodic2D(par.K1, p.L)
	g2 := greens.NewPeriodic2D(par.K2, p.L)

	a := cmplxmat.New(2*m, 2*m)
	rhs := make([]complex128, 2*m)

	// Self-cell singular integral of the 2-D log kernel:
	// ∫_{−h/2}^{h/2} −ln|x|/(2π) dx = (h/2π)·(1 − ln(h/2)).
	selfSing := complex(h/(2*math.Pi)*(1-math.Log(h/2)), 0)
	s1Self := selfSing + complex(h, 0)*g1.EvalRegularized()
	s2Self := selfSing + complex(h, 0)*g2.EvalRegularized()

	sub := opt.NearSubdiv
	for i := 0; i < m; i++ {
		xi := float64(i) * h
		zi := p.H[i]
		row1 := a.Row(i)
		row2 := a.Row(m + i)
		for j := 0; j < m; j++ {
			var s1, s2, d1, d2 complex128
			jn := [2]float64{-fx[j], 1}
			if i == j {
				s1, s2 = s1Self, s2Self
				// PV double-layer self term on a curved line: for the
				// local graph z ≈ f″x²/2 the static kernel gives the
				// constant n̂′·∇′G = f″/(4π), so the cell integral is
				// f″·h/(4π) (2-D analogue of the 3-D curvature term).
				curv := complex(fxx[i]*h/(4*math.Pi), 0)
				d1, d2 = curv, curv
			} else {
				dxc := xi - float64(j)*h
				dzc := zi - p.H[j]
				di := i - j
				di = ((di % m) + m) % m
				if di > m/2 {
					di -= m
				}
				if di < 0 {
					di = -di
				}
				if di <= nearRadius {
					// Second-order source geometry, as in the 3-D path.
					for sx := 0; sx < sub; sx++ {
						ox := ((float64(sx)+0.5)/float64(sub) - 0.5) * h
						ddz := dzc - (fx[j]*ox + 0.5*fxx[j]*ox*ox)
						v1, gr1 := g1.EvalGrad(dxc-ox, ddz)
						v2, gr2 := g2.EvalGrad(dxc-ox, ddz)
						w := complex(h/float64(sub), 0)
						s1 += v1 * w
						s2 += v2 * w
						snx := -(fx[j] + fxx[j]*ox)
						d1 += -(complex(snx, 0)*gr1[0] + gr1[1]) * w
						d2 += -(complex(snx, 0)*gr2[0] + gr2[1]) * w
					}
				} else {
					v1, gr1 := g1.EvalGrad(dxc, dzc)
					v2, gr2 := g2.EvalGrad(dxc, dzc)
					w := complex(h, 0)
					s1 = v1 * w
					s2 = v2 * w
					d1 = -(complex(jn[0], 0)*gr1[0] + complex(jn[1], 0)*gr1[1]) * w
					d2 = -(complex(jn[0], 0)*gr2[0] + complex(jn[1], 0)*gr2[1]) * w
				}
			}
			row1[j] = -d1
			row1[m+j] = par.Beta * s1
			row2[j] = d2
			row2[m+j] = -s2
		}
		row1[i] += 0.5
		row2[i] += 0.5
		rhs[i] = cmplx.Exp(complex(0, -1) * par.K1 * complex(zi, 0))
	}
	return &System2D{N: m, Matrix: a, RHS: rhs, Step: h}
}

// Solve factors and solves the dense 2-D system. Pabs is per unit length
// in y: (h/2)·Σ Re{ψ*·u}.
func (sys *System2D) Solve() (*Solution, error) {
	x, err := cmplxmat.SolveDense(sys.Matrix, sys.RHS)
	if err != nil {
		return nil, fmt.Errorf("mom: 2D dense solve: %w", err)
	}
	n := sys.N
	sol := &Solution{Psi: x[:n], U: x[n : 2*n]}
	var p float64
	for i := 0; i < n; i++ {
		p += real(sol.Psi[i])*real(sol.U[i]) + imag(sol.Psi[i])*imag(sol.U[i])
	}
	sol.Pabs = sys.Step / 2 * p
	return sol, nil
}

// FlatPabsAnalytic2D returns the analytic flat absorbed power per unit y
// for one period L: (L/2)·|T|²·Re{−j·k₂}.
func FlatPabsAnalytic2D(p Params, L float64) float64 {
	_, t := FlatTransmission(p)
	mag := real(t)*real(t) + imag(t)*imag(t)
	return L / 2 * mag * real(complex(0, -1)*p.K2)
}
