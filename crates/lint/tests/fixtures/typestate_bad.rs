//! Seeded typestate violations (3): an encoded value escaping without
//! verification, a raw mutation of an encoded operand, and an encoded
//! operand fed to a nonlinearity. The verified fn at the bottom is the
//! negative control and must stay clean.

pub fn leaks_encoded(sec: &mut GuardedSection, q: &Tensor, kt: &Tensor) -> Tensor {
    let leaked = sec.gemm(q, kt);
    leaked
}

pub fn mutates_encoded(sec: &mut GuardedSection, q: &Tensor, kt: &Tensor) {
    let mut scores = sec.gemm(q, kt);
    scores.set(0, 0, 9.0);
}

pub fn feeds_nonlinearity(sec: &mut GuardedSection, q: &Tensor, kt: &Tensor) {
    let scores = sec.gemm(q, kt);
    softmax_rows(&scores);
}

pub fn verified_escape_is_clean(sec: &mut GuardedSection, q: &Tensor, kt: &Tensor) -> Tensor {
    let scores = sec.gemm(q, kt);
    sec.detect(&scores);
    scores
}

pub fn mutation_before_encode_is_clean(sec: &mut GuardedSection, q: &mut Tensor, kt: &Tensor) {
    q.set(0, 0, 1.0);
    let scores = sec.gemm(q, kt);
    sec.exit_cols(&scores);
}
