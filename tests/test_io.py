import numpy as np

from tdho import io
from tdho.mode_solver import ModeTrajectory, wronskian
from tdho.states import WaveFunctionGrid

# values whose 17-digit forms are easy to get wrong: a negative zero, the
# smallest subnormal, a tiny normal and a large integer-valued double
SPECIAL = [-0.0, 5e-324, 1e-300, 1.2345678901234568e17, -1.2345678901234568e17, 0.1]


def pow_not_square(count: int) -> list:
    """Doubles x whose x ** 2 (a pow) differs from x * x in the last bit."""
    rng = np.random.default_rng(11)
    found = []
    while len(found) < count:
        x = float(rng.uniform(0.5, 2.0))
        if x**2 != x * x:
            found.append(x)
    return found


def per_value(rows) -> str:
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def test_trajectory_csv_bytes_match_per_value_form(tmp_path):
    t = np.array([-0.0, 5e-324, 1e-300, 1.0, 2.5, 1.2345678901234568e17])
    u = np.array(SPECIAL) + 1j * np.array(SPECIAL[::-1])
    u_dot = np.array(SPECIAL[::-1]) - 1j * np.array(SPECIAL)
    mass = np.array([1.0, 2.0, 0.5, 1e-300, 3.0, 1.2345678901234568e17])
    traj = ModeTrajectory(t, u, u_dot, mass)
    theta = np.array([0.0, -0.0, 5e-324, -1e-300, 1.2345678901234568e17, np.pi])
    header = "t,re_u,im_u,re_u_dot,im_u_dot,abs_wronskian_minus_i,rho,theta\n"
    for indices in (None, np.array([0, 2, 3, 5])):
        selected = slice(None) if indices is None else indices
        columns = (t, u.real, u.imag, u_dot.real, u_dot.imag)
        columns += (np.abs(wronskian(traj) - 1j), np.abs(u), theta)
        rows = np.column_stack([c[selected] for c in columns]).tolist()
        path = tmp_path / "trajectory.csv"
        io.write_trajectory_csv(traj, path, theta, indices=indices)
        assert path.read_bytes() == (header + per_value(rows)).encode()


def test_wavefunction_csv_bytes_match_per_value_form(tmp_path):
    magnitudes = pow_not_square(6)
    values = SPECIAL + magnitudes
    x = np.linspace(-4.0, 4.0, len(values))
    psi = np.array(values, dtype=complex)
    psi[3] = complex(-0.0, -0.0)
    psi[-3] = complex(magnitudes[0], 0.0)  # |psi|^2 by pow differs from x * x here
    psi[-2] = complex(0.0, -magnitudes[1])
    meta = {"n": 2, "alpha": 0.5 - 0.25j, "r": 0.3, "phi": 1.0, "hbar": 1.0}
    grid = WaveFunctionGrid(0.75, x, psi, meta)
    path = tmp_path / "wavefunction.csv"
    io.write_wavefunction_csv(grid, path)
    header = [
        "# t=0.75",
        "# n=2",
        "# alpha=0.5-0.25j",
        "# r=0.29999999999999999",
        "# phi=1",
        "# hbar=1",
        "# profile_hash=none",
        "x,re_psi,im_psi,abs2_psi",
    ]
    rows = [(xi, c.real, c.imag, abs(c) ** 2) for xi, c in zip(x.tolist(), psi.tolist())]
    assert any(abs(c) ** 2 != abs(c) * abs(c) for c in psi.tolist())
    assert path.read_bytes() == ("\n".join(header) + "\n" + per_value(rows)).encode()
