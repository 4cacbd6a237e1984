//! Human-friendly byte sizes.
//!
//! Experiment configurations in the paper are stated in sizes like "8 GB of
//! RAM and 64 GB of flash"; [`ByteSize`] parses and formats such quantities
//! and supports the exact linear scaling used to run paper-shaped
//! experiments at laptop scale: dividing every size by one factor keeps
//! the size ratios that hit rates depend on.

use core::fmt;
use core::str::FromStr;

/// A byte quantity with binary-unit parsing and formatting.
///
/// # Examples
///
/// ```
/// use fcache_types::ByteSize;
///
/// let flash: ByteSize = "64G".parse().unwrap();
/// assert_eq!(flash.bytes(), 64 << 30);
/// assert_eq!(flash.to_string(), "64G");
/// assert_eq!(flash.scaled_down(64), ByteSize::gib(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Constructs from raw bytes.
    pub const fn bytes_exact(b: u64) -> Self {
        Self(b)
    }

    /// Constructs from KiB.
    pub const fn kib(k: u64) -> Self {
        Self(k << 10)
    }

    /// Constructs from MiB.
    pub const fn mib(m: u64) -> Self {
        Self(m << 20)
    }

    /// Constructs from GiB.
    pub const fn gib(g: u64) -> Self {
        Self(g << 30)
    }

    /// Constructs from TiB.
    pub const fn tib(t: u64) -> Self {
        Self(t << 40)
    }

    /// Raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Number of whole 4 KB blocks this size holds (rounded down — a cache
    /// of 4 KB + 1 byte holds one block).
    pub const fn blocks(self) -> u64 {
        self.0 / crate::block::BLOCK_SIZE
    }

    /// Divides the size by `factor` (linear experiment scaling).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub const fn scaled_down(self, factor: u64) -> Self {
        assert!(factor > 0, "scale factor must be nonzero");
        Self(self.0 / factor)
    }

    /// True if zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        const UNITS: [(u64, &str); 4] = [
            (1 << 40, "T"),
            (1 << 30, "G"),
            (1 << 20, "M"),
            (1 << 10, "K"),
        ];
        for (factor, suffix) in UNITS {
            if b >= factor && b.is_multiple_of(factor) {
                return write!(f, "{}{}", b / factor, suffix);
            }
        }
        if b == 0 {
            return write!(f, "0");
        }
        // Fall back to a decimal rendering of the largest unit.
        for (factor, suffix) in UNITS {
            if b >= factor {
                return write!(f, "{:.2}{}", b as f64 / factor as f64, suffix);
            }
        }
        write!(f, "{b}B")
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSize({self})")
    }
}

/// Error parsing a [`ByteSize`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSizeError(pub String);

impl fmt::Display for ParseSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid byte size: {:?}", self.0)
    }
}

impl std::error::Error for ParseSizeError {}

impl FromStr for ByteSize {
    type Err = ParseSizeError;

    /// Parses forms like `0`, `4096`, `256K`, `64M`, `8G`, `1.5G`, `2T`,
    /// with an optional `B`/`iB` suffix (`64GiB`, `64GB` are binary here;
    /// the paper's sizes are conventional powers of two).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        if t.is_empty() {
            return Err(ParseSizeError(s.to_string()));
        }
        let lower = t.to_ascii_lowercase();
        let lower = lower
            .strip_suffix("ib")
            .or_else(|| lower.strip_suffix('b'))
            .unwrap_or(&lower);
        let (num, mult) = match lower.as_bytes().last() {
            Some(b'k') => (&lower[..lower.len() - 1], 1u64 << 10),
            Some(b'm') => (&lower[..lower.len() - 1], 1 << 20),
            Some(b'g') => (&lower[..lower.len() - 1], 1 << 30),
            Some(b't') => (&lower[..lower.len() - 1], 1 << 40),
            _ => (lower, 1),
        };
        let num = num.trim();
        if num.is_empty() {
            return Err(ParseSizeError(s.to_string()));
        }
        if let Ok(i) = num.parse::<u64>() {
            return Ok(ByteSize(i.saturating_mul(mult)));
        }
        match num.parse::<f64>() {
            Ok(fv) if fv >= 0.0 && fv.is_finite() => {
                Ok(ByteSize((fv * mult as f64).round() as u64))
            }
            _ => Err(ParseSizeError(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(ByteSize::kib(256).bytes(), 256 * 1024);
        assert_eq!(ByteSize::mib(1).bytes(), 1 << 20);
        assert_eq!(ByteSize::gib(8).bytes(), 8u64 << 30);
        assert_eq!(ByteSize::tib(1).bytes(), 1u64 << 40);
    }

    #[test]
    fn parse_plain_and_suffixed() {
        assert_eq!("4096".parse::<ByteSize>().unwrap().bytes(), 4096);
        assert_eq!("256K".parse::<ByteSize>().unwrap(), ByteSize::kib(256));
        assert_eq!("64g".parse::<ByteSize>().unwrap(), ByteSize::gib(64));
        assert_eq!("1.5G".parse::<ByteSize>().unwrap().bytes(), 3 << 29);
        assert_eq!("2T".parse::<ByteSize>().unwrap(), ByteSize::tib(2));
        assert_eq!("64GiB".parse::<ByteSize>().unwrap(), ByteSize::gib(64));
        assert_eq!("64GB".parse::<ByteSize>().unwrap(), ByteSize::gib(64));
        assert_eq!("0".parse::<ByteSize>().unwrap(), ByteSize::ZERO);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "  ", "G", "-1K", "12Q", "1e999G"] {
            assert!(bad.parse::<ByteSize>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_roundtrips_round_sizes() {
        for s in ["64G", "8G", "256K", "1T", "0"] {
            let v: ByteSize = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn blocks_rounds_down() {
        assert_eq!(ByteSize(4095).blocks(), 0);
        assert_eq!(ByteSize(4096).blocks(), 1);
        assert_eq!(ByteSize::gib(8).blocks(), (8u64 << 30) / 4096);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let ram = ByteSize::gib(8);
        let flash = ByteSize::gib(64);
        let s = 64;
        assert_eq!(
            flash.scaled_down(s).bytes() / ram.scaled_down(s).bytes(),
            flash.bytes() / ram.bytes()
        );
    }

    #[test]
    fn ordering() {
        assert!(ByteSize::kib(1) < ByteSize::mib(1));
    }
}
