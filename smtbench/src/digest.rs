//! Output digests: FNV-1a over the bit patterns of a workload's
//! deterministic results. Two runs that simulated the same machine produce
//! the same digest; any changed simulated bit changes it.

/// An FNV-1a 64-bit hasher.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes an integer.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Mixes a float's exact bit pattern.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Mixes floats in order, length-prefixed.
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        self.u64(values.len() as u64);
        values.iter().fold(self, |d, &v| d.f64(v))
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Renders a digest as 16 hex digits.
pub fn hex(value: u64) -> String {
    format!("{value:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_value_and_sensitivity() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        let base = Digest::default().f64s(&[1.0, 2.0]).value();
        assert_eq!(base, Digest::default().f64s(&[1.0, 2.0]).value());
        assert_ne!(base, Digest::default().f64s(&[2.0, 1.0]).value());
        assert_ne!(
            base,
            Digest::default()
                .f64s(&[1.0, 2.0 + f64::EPSILON * 2.0])
                .value()
        );
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
