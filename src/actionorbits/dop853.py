"""The Dormand-Prince 8(5,3) pair with its 7th-order dense output.

Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
section II.10 (the code DOP853): a 12-stage 8th-order step whose error is
estimated from a 5th- and a 3rd-order embedded solution combined into one
norm, and an interpolant from three more stages.  The tableau below is
the one SciPy's ``DOP853`` carries, digit for digit, and the initial step,
the stages, the error norm, the step-size controller and the interpolant
are written with SciPy's NumPy expressions in SciPy's order, so a drive
here reproduces a ``scipy.integrate.DOP853`` drive at the same tolerance
bit for bit.  The tests hold the two together.

The system is second order: the state is y = (q, q'), the positions
followed by the velocities, and its derivative is (q', a(q)).  The
right-hand side is an accelerator ``accelerate(pos, t, out)`` (the
signature of :meth:`.dynamics.PairTable.accelerator`) that writes a(q)
into ``out``, both of the position shape.  ``pos`` is the plan's stage
position, which the next stage overwrites, so ``accelerate`` keeps no
reference to it.

This module owns the one drive, :func:`drive`, for any accelerator and
any position shape: the flat state y, the first derivative and the
initial step, the step loop, dense output at the caller's sample times
and every :class:`.errors.IntegrationError` a drive raises.  Its caller
brings only the policy: the tolerance, the step budget and the sample
times.

A drive builds one :class:`StagePlan` for its position shape,
``StagePlan(shape)``, and hands it to :func:`initial_step`, every
:func:`step` and :func:`dense_output`: the stage array with, per stage,
the velocity half of its row, the position-shaped view of its
acceleration half, the read-only view of the stages before it and its
tableau row, and the arrays a stage's increment and position are formed
in.  A stage's position goes into the plan's stage position, and its
velocity, the position half of its derivative, straight into its row, so
no step slices the tableau, the stages or the state again and no stage
allocates.  The controller's scalars (step sizes, norms, factors) are
Python floats; each operation on them is the IEEE operation SciPy's
NumPy scalars perform.  The plan is scratch space: every state,
derivative and interpolated sample these functions return is a new
array, so a caller may keep it.  The integration runs forwards only,
with ``rtol = atol = tol``, and builds a step's interpolant only when a
sample time falls inside that step.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import IntegrationError

N_STAGES = 12
N_STAGES_EXTENDED = 16
# order of the embedded error estimate, which sets the controller's exponent
ERROR_ORDER = 7
_EXPONENT = -1 / (ERROR_ORDER + 1)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10

_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0,
               1.0,
               0.1,
               0.2,
               0.777777777777777777777777777778])

_A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, [0, 1]] = (1.97250569845378994544595329183e-2,
                 5.91751709536136983633785987549e-2)
_A[3, [0, 2]] = (2.95875854768068491816892993775e-2,
                 8.87627564304205475450678981324e-2)
_A[4, [0, 2, 3]] = (2.41365134159266685502369798665e-1,
                    -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1)
_A[5, [0, 3, 4]] = (3.7037037037037037037037037037e-2,
                    1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1)
_A[6, [0, 3, 4, 5]] = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2, -1.7578125e-2)
_A[7, [0, 3, 4, 5, 6]] = (3.70920001185047927108779319836e-2,
                          1.70383925712239993810214054705e-1,
                          1.07262030446373284651809199168e-1,
                          -1.53194377486244017527936158236e-2,
                          8.27378916381402288758473766002e-3)
_A[8, [0, 3, 4, 5, 6, 7]] = (6.24110958716075717114429577812e-1,
                             -3.36089262944694129406857109825,
                             -8.68219346841726006818189891453e-1,
                             2.75920996994467083049415600797e1,
                             2.01540675504778934086186788979e1,
                             -4.34898841810699588477366255144e1)
_A[9, [0, 3, 4, 5, 6, 7, 8]] = (4.77662536438264365890433908527e-1,
                                -2.48811461997166764192642586468,
                                -5.90290826836842996371446475743e-1,
                                2.12300514481811942347288949897e1,
                                1.52792336328824235832596922938e1,
                                -3.32882109689848629194453265587e1,
                                -2.03312017085086261358222928593e-2)
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (-9.3714243008598732571704021658e-1,
                                    5.18637242884406370830023853209,
                                    1.09143734899672957818500254654,
                                    -8.14978701074692612513997267357,
                                    -1.85200656599969598641566180701e1,
                                    2.27394870993505042818970056734e1,
                                    2.49360555267965238987089396762,
                                    -3.0467644718982195003823669022)
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (2.27331014751653820792359768449,
                                        -1.05344954667372501984066689879e1,
                                        -2.00087205822486249909675718444,
                                        -1.79589318631187989172765950534e1,
                                        2.79488845294199600508499808837e1,
                                        -2.85899827713502369474065508674,
                                        -8.87285693353062954433549289258,
                                        1.23605671757943030647266201528e1,
                                        6.43392746015763530355970484046e-1)
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = (5.42937341165687622380535766363e-2,
                                      4.45031289275240888144113950566,
                                      1.89151789931450038304281599044,
                                      -5.8012039600105847814672114227,
                                      3.1116436695781989440891606237e-1,
                                      -1.52160949662516078556178806805e-1,
                                      2.01365400804030348374776537501e-1,
                                      4.47106157277725905176885569043e-2)
# the three extra stages of the dense output
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = (5.61675022830479523392909219681e-2,
                                       2.53500210216624811088794765333e-1,
                                       -2.46239037470802489917441475441e-1,
                                       -1.24191423263816360469010140626e-1,
                                       1.5329179827876569731206322685e-1,
                                       8.20105229563468988491666602057e-3,
                                       7.56789766054569976138603589584e-3,
                                       -8.298e-3)
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = (3.18346481635021405060768473261e-2,
                                        2.83009096723667755288322961402e-2,
                                        5.35419883074385676223797384372e-2,
                                        -5.49237485713909884646569340306e-2,
                                        -1.08347328697249322858509316994e-4,
                                        3.82571090835658412954920192323e-4,
                                        -3.40465008687404560802977114492e-4,
                                        1.41312443674632500278074618366e-1)
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = (-4.28896301583791923408573538692e-1,
                                       -4.69762141536116384314449447206,
                                       7.68342119606259904184240953878,
                                       4.06898981839711007970213554331,
                                       3.56727187455281109270669543021e-1,
                                       -1.39902416515901462129418009734e-3,
                                       2.9475147891527723389556272149,
                                       -9.15095847217987001081870187138)

# the 8th-order weights: the 13th stage's row, a view as in SciPy
_B = _A[N_STAGES, :N_STAGES]

_E3 = np.zeros(N_STAGES + 1)
_E3[:-1] = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(N_STAGES + 1)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (0.1312004499419488073250102996e-1,
                                   -0.1225156446376204440720569753e+1,
                                   -0.4957589496572501915214079952,
                                   0.1664377182454986536961530415e+1,
                                   -0.3503288487499736816886487290,
                                   0.3341791187130174790297318841,
                                   0.8192320648511571246570742613e-1,
                                   -0.2235530786388629525884427845e-1)

# the dense output's last four coefficient rows; the first three are
# formed from the step's end points
_D = np.zeros((4, N_STAGES_EXTENDED))
_D_COLUMNS = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
_D[0, _D_COLUMNS] = (
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1)
_D[1, _D_COLUMNS] = (
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2)
_D[2, _D_COLUMNS] = (
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2)
_D[3, _D_COLUMNS] = (
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3)

for _a in (_C, _A, _E3, _E5, _D):
    _a.setflags(write=False)


def _rms(x: np.ndarray) -> float:
    """The rms of a 1-D array: np.linalg.norm(x) / sqrt(size), on floats."""
    return math.sqrt(np.dot(x, x)) / x.size ** 0.5


def initial_step(accelerate, t0: float, y0: np.ndarray, f0: np.ndarray,
                 t_bound: float, tol: float, plan: StagePlan):
    """The first step size (Hairer, Norsett & Wanner, section II.4), from
    the derivative f0 at (t0, y0) and one more evaluation, written into a
    stage row of the plan, for t_bound > t0."""
    interval_length = t_bound - t0
    scale = tol + np.abs(y0) * tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    _derive(accelerate, t0 + h0, y0 + h0 * f0, 1, plan)
    d2 = _rms((plan.K[1] - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


class StagePlan:
    """The stage storage of one drive and its fixed views, built once.

    ``K`` is the (16, size) array of a step's stages and of its dense
    output's three extra stages, for a state of ``size`` entries: the
    positions, of shape ``shape``, then as many velocities.  For each
    stage s it holds the velocity half K[s, :half] (the position half of
    the stage's derivative), the ``shape`` view of the acceleration half
    K[s, half:], the read-only view K[:s].T of the stages before it, the
    tableau row _A[s, :s] and the node c_s as a float, so a step slices
    nothing; ``error`` is the view K[:13].T the error estimate reads.  A
    stage's increment is formed in ``dy`` (which the dense output then
    takes as its one scratch row) and its position in ``state``,
    whose ``shape`` view ``position`` the accelerator reads.  Only these
    arrays are written, and no array a step or an interpolant returns is
    one of them.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.half = half = math.prod(shape)
        self.size = size = 2 * half
        self.K = np.empty((N_STAGES_EXTENDED, size))
        self.dy = np.empty(size)
        self.state = np.empty(half)
        self.position = self.state.reshape(shape)
        self.velocities = [row[:half] for row in self.K]
        self.accelerations = [row[half:].reshape(shape) for row in self.K]
        rows = []
        for s in range(N_STAGES_EXTENDED):
            before = self.K[:s].T
            before.setflags(write=False)
            rows.append((self.velocities[s], self.accelerations[s], before,
                         _A[s, :s], float(_C[s])))
        self.step_rows = rows[1:N_STAGES]
        self.solution = rows[N_STAGES][2]
        self.extra_rows = rows[N_STAGES + 1:]
        self.error = self.K[:N_STAGES + 1].T
        self.error.setflags(write=False)


def _derive(accelerate, t, y, s: int, plan: StagePlan) -> None:
    """Write the derivative (q', a(q)) at (t, y) into the stage row s."""
    half = plan.half
    plan.velocities[s][...] = y[half:]
    accelerate(y[:half].reshape(plan.shape), t, plan.accelerations[s])


def _evaluate(accelerate, t, y, h, rows, plan: StagePlan) -> None:
    """Write the derivative of each stage of ``rows`` into its row.

    Each stage state y + K[:s].T @ a * h is formed with the ufuncs,
    operands and order of SciPy's y + np.dot(K[:s].T, a) * h, its
    position half in the plan's stage position and its velocity half
    straight into the stage row, where the derivative's position half
    belongs; the accelerator writes the other half.
    """
    half, dy, state, position = plan.half, plan.dy, plan.state, plan.position
    y_q, y_v, dy_q, dy_v = y[:half], y[half:], dy[:half], dy[half:]
    for velocity, acceleration, before, a, c in rows:
        np.dot(before, a, dy)
        np.multiply(dy, h, dy)
        np.add(y_q, dy_q, state)
        np.add(y_v, dy_v, velocity)
        accelerate(position, t + c * h, acceleration)


def _stages(accelerate, t, y, f, h, plan: StagePlan):
    """The 8th-order solution at t + h and its derivative, with the
    stages in K[:13] (the last one being that derivative)."""
    K = plan.K
    K[0] = f
    _evaluate(accelerate, t, y, h, plan.step_rows, plan)
    y_new = y + h * np.dot(plan.solution, _B)
    _derive(accelerate, t + h, y_new, N_STAGES, plan)
    # a copy: the next step overwrites the row, and a rejected one too
    return y_new, K[N_STAGES].copy()


def _error_norm(plan: StagePlan, h: float, scale: np.ndarray) -> float:
    """The combined 5th/3rd-order error estimate, in units of ``scale``.

    Each squared norm is sqrt(e . e)**2, the value np.linalg.norm(e)**2
    takes for a 1-D float array, on Python floats.
    """
    err5 = np.dot(plan.error, _E5) / scale
    err3 = np.dot(plan.error, _E3) / scale
    err5_norm_2 = math.sqrt(np.dot(err5, err5))**2
    err3_norm_2 = math.sqrt(np.dot(err3, err3))**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * plan.size)


def step(accelerate, t, y: np.ndarray, f: np.ndarray, h_abs,
         t_bound: float, tol: float, plan: StagePlan):
    """One accepted step from (t, y), with f the derivative there, trying
    ``h_abs`` first and never passing ``t_bound``.

    Returns (t_new, y_new, f_new, next h_abs), with the step's stages left
    in the plan for :func:`dense_output`, or None when the step size needed
    falls below ten spacings of floats at t.
    """
    min_step = 10 * abs(math.nextafter(t, math.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            return None
        t_new = t + h_abs
        if t_new - t_bound > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = abs(h)
        y_new, f_new = _stages(accelerate, t, y, f, h, plan)
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        error_norm = _error_norm(plan, h, scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** _EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)
        rejected = True


def dense_output(accelerate, t_old, t, y_old: np.ndarray, y: np.ndarray,
                 f: np.ndarray, plan: StagePlan):
    """The 7th-order interpolant of the step from (t_old, y_old) to (t, y)
    that :func:`step` just took, with f the derivative at (t, y) and its
    stages in the plan.

    Evaluates the three extra stages into K[13:], forms the coefficient
    rows F with ``out=`` ufuncs in SciPy's order into a new array, which
    the interpolant keeps, and returns a function of the time, for
    t_old <= time <= t, that returns a new array.
    """
    K = plan.K
    h = t - t_old
    _evaluate(accelerate, t_old, y_old, h, plan.extra_rows, plan)
    # ``dy`` is free once the extra stages are in: it holds h * (f + f_old)
    F = np.empty((7, y_old.size))
    f_old, delta_y, scratch = K[0], F[0], plan.dy
    np.subtract(y, y_old, delta_y)
    np.multiply(h, f_old, F[1])
    np.subtract(F[1], delta_y, F[1])
    np.add(f, f_old, scratch)
    np.multiply(h, scratch, scratch)
    np.multiply(2, delta_y, F[2])
    np.subtract(F[2], scratch, F[2])
    np.dot(_D, K, F[3:])
    np.multiply(h, F[3:], F[3:])

    def interpolant(time):
        x = (time - t_old) / h
        out = np.zeros_like(y_old)
        for i, row in enumerate(reversed(F)):
            out += row
            if i % 2 == 0:
                out *= x
            else:
                out *= 1 - x
        out += y_old
        return out

    return interpolant


def drive(accelerate, pos: np.ndarray, vel: np.ndarray, horizon: float,
          times, tol: float, max_steps: int):
    """Step from (pos, vel) at t = 0 to ``horizon``, yielding (t, pos, vel)
    at 0, at each of the ascending ``times`` (an iterable, read one time at
    a time, of times below the horizon) and at the horizon: the step's end
    state where a time ends a step, its dense interpolant elsewhere, each
    of the shape of ``pos``.

    Raises IntegrationError (with ``t``) on a non-finite start, a failed
    step, a non-finite state or a step past ``max_steps``; what
    ``accelerate`` raises passes through.
    """
    shape, half = pos.shape, pos.size
    yield 0.0, pos, vel
    y = np.concatenate((pos.ravel(), vel.ravel()))
    if not np.all(np.isfinite(y)):
        raise IntegrationError("non-finite state at t=0", t=0.0)
    plan = StagePlan(shape)
    t = 0.0
    _derive(accelerate, t, y, 0, plan)
    f = plan.K[0].copy()
    if not np.all(np.isfinite(f)):
        # a non-finite start gives a NaN first step and a loop that never ends
        raise IntegrationError("non-finite acceleration at t=0", t=0.0)
    h_abs = initial_step(accelerate, t, y, f, horizon, tol, plan)
    pending = itertools.chain(times, (horizon,))
    due = next(pending)
    for _ in range(max_steps):
        taken = step(accelerate, t, y, f, h_abs, horizon, tol, plan)
        if taken is None:
            raise IntegrationError(f"integration failed at t={t:.6f} (required"
                                   f" step size is less than spacing between"
                                   f" numbers)", t=t)
        t_old, y_old = t, y
        t, y, f, h_abs = taken
        if not np.isfinite(y).all():    # half the cost of np.all per step
            raise IntegrationError(f"integration failed at t={t:.6f} "
                                   f"(non-finite state)", t=t)
        dense = None
        while due <= t:
            if due == t:
                sample = y
            else:
                if dense is None:
                    dense = dense_output(accelerate, t_old, t, y_old, y, f,
                                         plan)
                sample = dense(due)
            yield (due, sample[:half].reshape(shape),
                   sample[half:].reshape(shape))
            if due == horizon:
                return
            due = next(pending)
    raise IntegrationError(f"step budget of {max_steps} spent by "
                           f"t={t:.6f}", t=t)
