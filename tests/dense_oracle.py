"""Dense reference implementations of the filter-bank spectral formulas.

The signal helpers first (dft, idft, downsample, upsample, circular
convolution) state the DFT convention of ``audfb.filterbank``: forward
unnormalized, inverse carrying the 1/L factor, bin j holding the transfer
value at e^(2*pi*i*j/L). The filter-bank tests build their time-domain
oracles from them.

Each function after them works on the dense (channels, L) transfers
``fb.filters`` and evaluates its formula over all L bins, as the library did
before it stored filters as circular covers. The tests compare the
cover-based library against these, so nothing here may call the library's
spectral code, with the exceptions named above the loop and solver oracles at
the end.
"""

import math

import numpy as np

from audfb import filterbank, finite_frames, frame_diagnostics, masking, scales, synthesis
from audfb.errors import ConvergenceError, DomainError, ShapeError, UnsupportedConfigError
from audfb.filterbank import _as_signal


def dft(x):
    """Unnormalized forward DFT, X[j] = sum_n x[n] e^(-2*pi*i*j*n/L)."""
    return np.fft.fft(_as_signal(x))


def idft(X):
    """Inverse DFT with the 1/L factor; idft(dft(x)) == x."""
    return np.fft.ifft(_as_signal(X))


def downsample(x, d):
    """Keep every d-th sample, x[d*n]. Requires d to divide the length."""
    x = _as_signal(x)
    d = int(d)
    if d < 1:
        raise DomainError("downsampling factor must be >= 1")
    if x.shape[0] % d != 0:
        raise ShapeError(f"factor {d} does not divide length {x.shape[0]}")
    return x[::d].copy()


def upsample(x, d):
    """Insert d-1 zeros after each sample; output length L*d."""
    x = _as_signal(x)
    d = int(d)
    if d < 1:
        raise DomainError("upsampling factor must be >= 1")
    out = np.zeros(x.shape[0] * d, dtype=np.complex128 if np.iscomplexobj(x) else np.float64)
    out[::d] = x
    return out


def circular_convolve(x, h):
    """Circular convolution of equal-length signals via the spectral product."""
    x = _as_signal(x)
    h = _as_signal(h)
    if x.shape[0] != h.shape[0]:
        raise ShapeError(f"length mismatch: {x.shape[0]} vs {h.shape[0]}")
    return np.fft.ifft(np.fft.fft(x) * np.fft.fft(h))


def _mirror_spectrum(V):
    """Spectrum of conj(v) given the spectrum of v: conj(V[(-j) mod L])."""
    return np.conj(np.roll(V[::-1], 1))


def _fold(V, d):
    """sum_s V[i + s*L/d] over the d alias copies."""
    return V.reshape(d, V.shape[0] // d).sum(axis=0)


def _cover_length(H):
    return filterbank.circular_cover(np.abs(H) > 0.0)[1]


def audlet_filters(fb):
    """Dense filters and decimations of ``build_audlet`` from the bank's
    centers and dilations, every window evaluated on all L bins."""
    cfg = fb.config
    window, _, norm_sq = filterbank.PROTOTYPES[cfg.prototype]
    L, fs = fb.signal_length, fb.sample_rate
    target = (L / fs) * norm_sq
    filters = np.zeros((fb.n_channels, L), dtype=np.complex128)
    for k, (center, gamma) in enumerate(zip(fb.center_frequencies, fb.dilations)):
        c_bins = center * L / fs
        if abs(c_bins - round(c_bins)) < 1e-9:
            c_bins = float(round(c_bins))
        offs = ((np.arange(L) - c_bins + L / 2.0) % L - L / 2.0) * (fs / L)
        vals = window(offs / gamma) / math.sqrt(gamma)
        filters[k] = vals * math.sqrt(target / float(np.sum(vals**2)))
    divisors = np.array([d for d in range(1, L + 1) if L % d == 0])
    decimations = np.empty(fb.n_channels, dtype=np.int64)
    for k, gamma in enumerate(fb.dilations):
        cap_rate = math.floor(cfg.r_d * fs * cfg.r_bw / gamma)
        cap = max(1, min(L // _cover_length(filters[k]), cap_rate))
        decimations[k] = divisors[divisors <= cap][-1]
    return filters, decimations


def circular_cover(mask):
    """The gap scan of ``filterbank.circular_cover`` for every mask: the
    complement of the longest circular run of False values."""
    idx = np.flatnonzero(mask)
    n, L = idx.size, mask.size
    if n == 0:
        return (0, 0)
    if n == L:
        return (0, L)
    gaps = np.empty(n, dtype=np.int64)
    gaps[:-1] = np.diff(idx) - 1
    gaps[-1] = idx[0] + L - idx[-1] - 1
    i = int(np.argmax(gaps))
    return (int(idx[(i + 1) % n]), int(L - gaps[i]))


def _evaluated_bins(half_width, L, sample_rate, center, gamma):
    """(center in bins, first bin, bin count) of the range a window is evaluated on."""
    c_bins = center * L / sample_rate
    if abs(c_bins - round(c_bins)) < 1e-9:
        c_bins = float(round(c_bins))
    reach = half_width * gamma * L / sample_rate
    first, count = 0, L
    if reach < L / 2.0 - 2.0:
        first = math.floor(c_bins - reach) - 1
        count = math.ceil(c_bins + reach) + 2 - first
    return c_bins, first, count


def window_cover(window, half_width, L, sample_rate, center, gamma):
    """One channel's cover of ``filterbank._audlet_covers`` before its gain,
    with every evaluated bin and offset reduced mod L, whether the evaluated
    range wraps or not."""
    c_bins, first, count = _evaluated_bins(half_width, L, sample_rate, center, gamma)
    j = np.arange(first, first + count) % L
    t = (j - c_bins + L / 2.0) % L - L / 2.0
    values = window(t * (sample_rate / L) / gamma) / math.sqrt(gamma)
    start, n = circular_cover(values > 0.0)
    return int(j[start]), values.take(np.arange(start, start + n), mode="wrap")


def loop_window_cover(window, half_width, L, sample_rate, center, gamma):
    """:func:`window_cover` as the library computed it one channel at a time:
    a range inside [0, L) is evaluated without the reductions mod L."""
    c_bins, first, count = _evaluated_bins(half_width, L, sample_rate, center, gamma)
    inside = count < L and 0 <= first and first + count <= L
    j = np.arange(first, first + count)
    if not inside:
        j %= L
    t = j - c_bins + L / 2.0 if inside else (j - c_bins + L / 2.0) % L
    values = window((t - L / 2.0) * (sample_rate / L) / gamma) / math.sqrt(gamma)
    start, n = circular_cover(values > 0.0)
    return int(j[start]), values.take(np.arange(start, start + n), mode="wrap")


def loop_audlet_covers(prototype, L, sample_rate, centers, gammas, window_cover=loop_window_cover):
    """``filterbank._audlet_covers`` with one ``window_cover`` call per
    channel, each cover scaled by its own gain to the prototype's energy."""
    window, half_width, norm_sq = filterbank.PROTOTYPES[prototype]
    target = (L / sample_rate) * norm_sq
    covers = []
    for k, (center, gamma) in enumerate(zip(centers, gammas)):
        start, vals = window_cover(window, half_width, L, sample_rate, center, gamma)
        if vals.size == 0:
            raise UnsupportedConfigError(
                f"channel {k} (center {center:.6g} Hz) has no nonzero bins; "
                "increase signal_length or r_bw"
            )
        gain = math.sqrt(target / float(np.sum(vals**2)))
        covers.append((start, np.multiply(vals, gain, out=np.empty(vals.size, np.complex128))))
    return covers


def expanded(fb):
    """Full channel system: stored filters, then mirrors of the mid channels."""
    if not fb.one_sided:
        return fb.filters, fb.decimations
    mirrors = [_mirror_spectrum(fb.filters[k]) for k in range(1, fb.n_channels - 1)]
    filters = np.concatenate([fb.filters, np.array(mirrors).reshape(-1, fb.signal_length)])
    return filters, np.concatenate([fb.decimations, fb.decimations[1:-1]])


def analyze(fb, x):
    X = np.fft.fft(x)
    return [
        np.fft.ifft(_fold(X * H, int(d)) / int(d))
        for H, d in zip(fb.filters, fb.decimations)
    ]


def synthesize(fb, coefficients):
    total = np.zeros(fb.signal_length, dtype=np.complex128)
    last = fb.n_channels - 1
    for k, (c, H, d) in enumerate(zip(coefficients, fb.filters, fb.decimations)):
        term = np.tile(np.fft.fft(c), int(d)) * H
        total += term
        if fb.one_sided and 0 < k < last:
            total += _mirror_spectrum(term)
    return np.fft.ifft(total)


def frequency_response(fb):
    response = np.zeros(fb.signal_length)
    for H, d in zip(*expanded(fb)):
        response += (H.real**2 + H.imag**2) / int(d)
    return response


def painless_check(fb):
    L = fb.signal_length
    return all(_cover_length(H) <= L // int(d) for H, d in zip(fb.filters, fb.decimations))


def painless_dual_filters(fb):
    return np.conj(fb.filters) / frequency_response(fb)


def parseval_filters(fb):
    response = frequency_response(fb)
    scale = np.where(response > 0.0, 1.0 / np.sqrt(np.where(response > 0.0, response, 1.0)), 0.0)
    return fb.filters * scale


def walnut_apply(fb, x):
    X = np.fft.fft(x)
    if painless_check(fb):
        return np.fft.ifft(frequency_response(fb) * X)
    out = np.zeros(fb.signal_length, dtype=np.complex128)
    for H, d in zip(*expanded(fb)):
        d = int(d)
        out += np.conj(H) * np.tile(_fold(H * X, d), d) / d
    return np.fft.ifft(out)


def alias_components(fb):
    """Off-diagonal Walnut terms with one np.roll per channel and alias index."""
    filters, decs = expanded(fb)
    L = fb.signal_length
    D = math.lcm(*(int(d) for d in decs))
    hop = L // D
    out = np.zeros((D - 1, L), dtype=np.complex128)
    for H, d in zip(filters, decs):
        d = int(d)
        q = D // d
        for r in range(q, D, q):
            out[r - 1] += np.conj(H) * np.roll(H, r * hop) / d
    return out


def walnut_terms(fb):
    """{s: H_s} for every bin shift s >= 1 at which H_s has a nonzero entry,
    ascending: H_s[j] = sum conj(H_k[j]) * H_k[(j - s) mod L] / d_k over the
    channels k of :func:`expanded` with L/d_k dividing s, in channel order."""
    L = fb.signal_length
    zero, terms = np.zeros(L, dtype=np.complex128), {}
    for H, d in zip(*expanded(fb)):
        d = int(d)
        for s in range(L // d, L, L // d):
            terms[s] = terms.get(s, zero) + np.conj(H) * np.roll(H, s) / d
    return {s: terms[s] for s in sorted(terms) if np.any(terms[s])}


def atom_frame(fb):
    """The bank's full atom system as a finite frame: channel k and time n
    give the vector m -> conj(h_k[(n*d_k - m) mod L])."""
    rows = []
    for H, d in zip(*expanded(fb)):
        d = int(d)
        base = np.roll(np.conj(np.fft.ifft(H))[::-1], 1)
        for n in range(fb.signal_length // d):
            rows.append(np.roll(base, n * d))
    return finite_frames.FiniteFrame(np.array(rows))


def walnut_matrix(fb):
    """The frame operator as one L x L matrix in the DFT domain, entry Hr[j]
    at (j, j - r*L/D), from the dense response and alias components."""
    L = fb.signal_length
    D = math.lcm(*(int(d) for d in fb.decimations))
    j = np.arange(L)
    S = np.zeros((L, L), dtype=np.complex128)
    S[j, j] = frequency_response(fb)
    for r, H in enumerate(alias_components(fb), start=1):
        S[j, (j - r * (L // D)) % L] += H
    return S


def pr_residual(fb_ana, fb_syn):
    """Exhaustive delay search of pr_residual over l = 0 .. L-1.

    The alias-domain terms are written densely, and every delay's deviation
    is measured with a ramp advanced by one multiplication per delay and
    recomputed exactly every 128 steps. Returns (delay, max_deviation, the
    L per-delay deviations of T0 alone).
    """
    G, decs = expanded(fb_syn)
    H, _ = expanded(fb_ana)
    L = fb_ana.signal_length
    D = math.lcm(*(int(d) for d in decs))
    T = np.zeros((D, L), dtype=np.complex128)
    for g, h, d in zip(G, H, decs):
        d = int(d)
        for r in range(0, D, D // d):
            T[r] += g * np.roll(h, r * (L // D)) / d
    rest = float(np.abs(T[1:]).max()) if D > 1 else 0.0
    j = np.arange(L)
    base = np.exp(2j * np.pi * j / L)
    ramp = np.ones(L, dtype=np.complex128)
    devs = np.empty(L)
    for delay in range(L):
        if delay % 128 == 0:
            ramp = np.exp(2j * np.pi * ((j * delay) % L) / L)
        devs[delay] = np.abs(T[0] * ramp - 1.0).max()
        ramp = ramp * base
    best = int(np.argmin(devs))
    return best, max(float(devs[best]), rest), devs


# The oracles below run the simple code paths on the library's own covers and
# cached Walnut terms, so the fast paths can be held to bit-for-bit equality:
# first the loops the batched kernels replaced (one transform per channel, one
# scatter-add per bin shift, every masking sweep over all channels) and the
# frequency response and uniform rows as written before the bank kept them (a
# fresh sum per call, one gather per split row), then the solvers (one np.roll
# per term, the 1/H0 preconditioner) on the library's right-hand side
# spectrum. The time_* oracles run the same iterations on signals, with two
# transforms per application of S.


def _wrapped(a, start, n):
    """a[(start + t) mod a.size] for t = 0 .. n-1, always a gathered copy."""
    return a.take(np.arange(start, start + n), mode="wrap")


def _cover_fold(values, start, N):
    """Alias fold onto N bins of the spectrum that equals ``values`` on the
    circular interval from bin ``start`` and vanishes elsewhere, into a fresh
    array: the interval padded to whole rows of N bins, summed row by row."""
    offset = start % N
    rows = -(-(offset + values.size) // N)
    padded = np.zeros(rows * N, dtype=np.complex128)
    padded[offset : offset + values.size] = values
    return padded.reshape(rows, N).sum(axis=0)


def loop_analyze(fb, x):
    """``filterbank.analyze`` with one inverse FFT per channel: each cover's
    product with the signal's spectrum folded into a fresh array and divided
    by d_k."""
    X = np.fft.fft(_as_signal(x))
    out = []
    for (start, values), d in zip(fb._covers, fb.decimations):
        d = int(d)
        spectrum = _wrapped(X, start, values.size) * values
        out.append(np.fft.ifft(_cover_fold(spectrum, start, fb.signal_length // d) / d))
    return out


def full_sweep_threshold(coefficients, fb, model):
    """``masking.irrelevance_threshold`` with every sweep of every rate run
    over all channels, past the last target that reads it."""
    c = filterbank._check_coefficients(fb, coefficients)
    units = scales.scale_value(model.scale, np.asarray(fb.center_frequencies, dtype=np.float64))
    levels = masking._levels_db(c)
    upper, lower = model.spread_upper_db_per_unit, model.spread_lower_db_per_unit
    order = np.argsort(units, kind="stable")
    gaps = np.diff(units[order], prepend=units[order[0]], append=units[order[-1]]).tolist()
    sweeps = ((order.tolist(), gaps[:-1], upper), (order[::-1].tolist(), gaps[:0:-1], lower))
    L, decimations = fb.signal_length, fb.decimations.tolist()
    thresholds = [level.copy() for level in levels]
    for d_k in set(decimations):
        n = np.arange(L // d_k)
        nearest = {d: ((2 * n * d_k + d) // (2 * d)) % (L // d) for d in set(decimations)}
        for channels, steps, slope in sweeps:
            run = np.full(n.size, -np.inf)
            for kappa, step in zip(channels, steps):
                run -= slope * step
                d_kap = decimations[kappa]
                if d_kap == d_k:
                    np.maximum(thresholds[kappa], run, out=thresholds[kappa])
                np.maximum(run, levels[kappa][nearest[d_kap]], out=run)
    for thr in thresholds:
        thr += model.offset_db
    return thresholds


def loop_synthesis_spectrum(fb, coefficients):
    """The spectrum of ``filterbank.synthesize`` with one FFT per channel,
    each term scattered into the total in channel order, its mirror straight
    after it."""
    coefficients = filterbank._check_coefficients(fb, coefficients)
    L = fb.signal_length
    total = np.zeros(L, dtype=np.complex128)
    mirrored = filterbank._mirrored(fb)
    for k, (c, (start, values)) in enumerate(zip(coefficients, fb._covers)):
        term = _wrapped(np.fft.fft(c), start, values.size) * values
        filterbank._add_at(total, start, term)
        if k in mirrored:
            filterbank._add_at(total, *filterbank._mirror(start, term, L))
    return total


def loop_frequency_response(fb):
    """H0 summed afresh on every call: each stored channel's energy scattered
    in channel order, then the mirror of each mirrored channel's energy."""
    response, mirrored = np.zeros(fb.signal_length), filterbank._mirrored(fb)
    mirrors = []
    for k, ((start, values), d) in enumerate(zip(fb._covers, fb.decimations)):
        energy = (values.real**2 + values.imag**2) / int(d)
        filterbank._add_at(response, start, energy)
        if k in mirrored:
            mirrors.append(filterbank._mirror(start, energy, response.size))
    for start, energy in mirrors:
        filterbank._add_at(response, start, energy)
    return response


def loop_uniform_rows(fb):
    """The (start, values) rows of ``frame_diagnostics.equivalent_uniform``,
    each split row with its own index array and gather of the root table."""
    covers = filterbank._expanded_covers(fb)
    L = fb.signal_length
    D = math.lcm(*(d for *_, d in covers))
    roots, rows = np.exp(-2j * np.pi * np.arange(L) / L), []
    for start, values, d in covers:
        j = (start + np.arange(values.size)) % L
        rows += [(start, values * roots[(j * shift) % L]) for shift in range(0, D, d)]
    return rows


def shift_walnut_spectrum(fb, X):
    """The Walnut sum on a spectrum X with one ``np.add.at`` per bin shift s,
    in ascending s, over the cached entries of H_s."""
    H0, entries = frame_diagnostics._frame_terms(fb)
    out = H0 * X + 0.0  # + 0.0 turns a -0.0 into 0.0, as a sum from zero does
    for s, rows, values in entries:
        np.add.at(out, rows, values * X.take(rows - s))  # rows - s wraps to (rows - s) mod L
    return out


def roll_walnut_spectrum(fb, X):
    """Walnut sum on a spectrum with one np.roll copy of it per bin shift s,
    each cached H_s densified from its entries over all L bins."""
    H0, entries = frame_diagnostics._frame_terms(fb)
    terms = [(0, H0)]
    for s, rows, values in entries:
        H = np.zeros(fb.signal_length, dtype=np.complex128)
        H[rows] = values
        terms.append((s, H))
    return sum(H * np.roll(X, s) for s, H in terms)


def roll_walnut_apply(fb, x):
    """S x through :func:`roll_walnut_spectrum` between two transforms."""
    return np.fft.ifft(roll_walnut_spectrum(fb, np.fft.fft(x)))


def _pcg(b, apply_s, precondition, max_iterations):
    """Conjugate gradients from b through apply_s and precondition, stopped
    at a relative residual of 1e-10. Returns (x, residuals), or raises
    ConvergenceError like the library."""
    b_norm = float(np.linalg.norm(b))
    residuals = []
    x = np.zeros(b.shape[0], dtype=np.complex128)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = np.vdot(r, z)
    for _ in range(max_iterations):
        q = apply_s(p)
        pq = np.vdot(p, q)
        if not pq.real > 0.0:
            raise ConvergenceError("not positive definite", residuals=residuals)
        alpha = rz / pq
        x = x + alpha * p
        r = r - alpha * q
        residuals.append(float(np.linalg.norm(r)) / b_norm)
        if residuals[-1] <= 1e-10:
            return x, residuals
        z = precondition(r)
        rz_next = np.vdot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise ConvergenceError("above tolerance", residuals=residuals)


def response_pcg(fb, coefficients, max_iterations=None):
    """CG preconditioned by 1/H0 on spectra, with roll_walnut_spectrum and
    one inverse DFT of the solution."""
    response = filterbank.frequency_response(fb)
    x, residuals = _pcg(
        synthesis._rhs(fb, coefficients),
        lambda p: roll_walnut_spectrum(fb, p),
        lambda r: r / response,
        fb.signal_length if max_iterations is None else max_iterations,
    )
    return np.fft.ifft(x), residuals


def time_response_pcg(fb, coefficients, max_iterations=None):
    """The same CG on signals: roll_walnut_apply, and the preconditioner
    between two transforms."""
    response = filterbank.frequency_response(fb)
    return _pcg(
        np.fft.ifft(synthesis._rhs(fb, coefficients)),
        lambda p: roll_walnut_apply(fb, p),
        lambda r: np.fft.ifft(np.fft.fft(r) / response),
        fb.signal_length if max_iterations is None else max_iterations,
    )


def _frame_algorithm(b, apply_s, bounds, tolerance):
    """Neumann iteration from b through apply_s; returns (x, residuals)."""
    relax = 2.0 / (bounds[0] + bounds[1])
    x = np.zeros(b.shape[0], dtype=np.complex128)
    residuals = []
    for _ in range(10000):
        delta = relax * (b - apply_s(x))
        x = x + delta
        residuals.append(float(np.linalg.norm(delta)) / float(np.linalg.norm(x)))
        if residuals[-1] <= tolerance:
            break
    return x, residuals


def frame_algorithm(fb, coefficients, bounds, tolerance=1e-10):
    """Neumann iteration x + 2/(A+B) (D c - S x) on spectra with
    roll_walnut_spectrum, stopped on the relative update; returns
    (x, residuals) with one inverse DFT of the solution."""
    b = synthesis._rhs(fb, coefficients)
    x, residuals = _frame_algorithm(b, lambda x: roll_walnut_spectrum(fb, x), bounds, tolerance)
    return np.fft.ifft(x), residuals


def time_frame_algorithm(fb, coefficients, bounds, tolerance=1e-10):
    """The same Neumann iteration on signals, with roll_walnut_apply."""
    b = np.fft.ifft(synthesis._rhs(fb, coefficients))
    return _frame_algorithm(b, lambda x: roll_walnut_apply(fb, x), bounds, tolerance)
