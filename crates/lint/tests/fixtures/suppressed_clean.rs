//! Justified allows fully suppress their findings: one trailing form,
//! one standalone-above form. Scans clean with two suppressions honoured.

pub fn gate_is_off(f: f32) -> bool {
    f == 0.0 // attn-lint: allow(float-eq) — 0.0 is the exact "never check" sentinel
}

pub fn gate_is_on(f: f32) -> bool {
    // attn-lint: allow(float-eq) — the same sentinel, negated
    f != 0.0
}
