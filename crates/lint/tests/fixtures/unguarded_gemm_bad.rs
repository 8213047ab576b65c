//! Seeded violations for the `unguarded-gemm` lint (three raw calls —
//! two `*_into` kernels and the allocating `matmul`; the method form, the
//! by-design exempt fn and the test-region call must NOT flag).

use attn_tensor::gemm::{gemm_encode_cols_into, matmul, matmul_into};

pub fn sneaky_projection(a: MatRef<'_>, b: MatRef<'_>, mut c: MatMut<'_>) {
    matmul_into(a, b, c.rb_mut());
    gemm_encode_cols_into(a, b, c);
}

pub fn sneaky_head(x: &Matrix, w: &Matrix) -> Matrix {
    matmul(x, w)
}

impl Linear {
    // On the committed by-design exemption list: the unguarded head.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        matmul(x, &self.w)
    }
}

pub fn guarded_is_fine(section: &mut GuardedSection, x: &Matrix, w: &Matrix) -> CheckedMatrix {
    // Method call on a GuardedSection IS the guarded API.
    let y = section.gemm(x, w);
    section.exit_cols(&y)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_call_raw_kernels() {
        matmul_into(a(), b(), c());
    }
}
