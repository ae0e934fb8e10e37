//! The `key=value` grammar both fault specs share: one loop over the
//! pairs, the value kinds, and [`key_table!`], which derives a spec's
//! `KEYS`, `parse`, `Display` and `is_active` from one row per key.

use std::fmt::{self, Formatter};
use std::str::FromStr;

use aw_types::Nanos;

/// A human-readable spec parse/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// Smallest non-zero fault event rate, per second: a rarer event fires
/// less than once in eleven simulated days, and far below it the
/// exponential gap between events overflows to an infinite event time.
const MIN_RATE: f64 = 1e-6;

/// Largest fault event rate, per second: one event per simulated
/// nanosecond. Far above it the gaps fall below the resolution of the
/// event clock, which then stops advancing, and the run never ends.
const MAX_RATE: f64 = 1e9;

/// Largest service-time stretch a fault may apply (`slow-factor`, and
/// `1 / throttle-factor` for a fleet): a thousandfold stretch already
/// stalls any modeled server, and far beyond it stretched service times
/// overflow to infinity.
pub(crate) const MAX_STRETCH: f64 = 1e3;

/// Calls `set(key, value)` for each comma-separated `key=value` pair of
/// `s`, both sides trimmed. The empty string and `"none"` hold no pairs.
pub(crate) fn for_each_pair(
    s: &str,
    mut set: impl FnMut(&str, &str) -> Result<(), FaultSpecError>,
) -> Result<(), FaultSpecError> {
    let trimmed = s.trim();
    if trimmed.is_empty() || trimmed == "none" {
        return Ok(());
    }
    for pair in trimmed.split(',') {
        let pair = pair.trim();
        let Some((key, v)) = pair.split_once('=') else {
            return Err(FaultSpecError(format!("expected key=value, got '{pair}'")));
        };
        set(key.trim(), v.trim())?;
    }
    Ok(())
}

/// How one key's value is parsed, checked, stored and written back.
pub(crate) trait Kind<T> {
    /// Parses `v`, the value of `key`, into `slot`. A failed parse
    /// discards the whole spec, so a kind may store before it checks.
    fn set(&self, key: &str, v: &str, slot: &mut T) -> Result<(), FaultSpecError>;

    /// Writes `,key=value` unless `value` is the default.
    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &T, default: &T) -> fmt::Result;

    /// `true` if `value` lets the key's fault fire.
    fn fires(&self, _value: &T) -> bool {
        false
    }
}

fn bad(key: &str, v: &str) -> FaultSpecError {
    FaultSpecError(format!("bad {key} '{v}'"))
}

fn bad_value(key: &str, v: &str, unit: &str) -> FaultSpecError {
    FaultSpecError(format!("bad {key} value '{v}' ({unit})"))
}

/// [`Kind::show`] for a scalar: writes `shown` if `value` is not `default`.
fn changed<T: PartialEq>(
    f: &mut Formatter<'_>,
    key: &str,
    value: &T,
    default: &T,
    shown: impl fmt::Display,
) -> fmt::Result {
    if value == default {
        return Ok(());
    }
    write!(f, ",{key}={shown}")
}

/// Any `u64`. Always written, without a leading comma: the first row.
pub(crate) struct Seed;

impl Kind<u64> for Seed {
    fn set(&self, key: &str, v: &str, slot: &mut u64) -> Result<(), FaultSpecError> {
        *slot = v.parse().map_err(|_| bad(key, v))?;
        Ok(())
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &u64, _: &u64) -> fmt::Result {
        write!(f, "{key}={value}")
    }
}

/// A probability in [0, 1].
pub(crate) struct Probability;

impl Kind<f64> for Probability {
    fn set(&self, key: &str, v: &str, slot: &mut f64) -> Result<(), FaultSpecError> {
        *slot = v.parse().map_err(|_| bad_value(key, v, "probability"))?;
        if !(0.0..=1.0).contains(slot) {
            return Err(FaultSpecError(format!("{key} must be a probability in [0, 1], got {v}")));
        }
        Ok(())
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &f64, d: &f64) -> fmt::Result {
        changed(f, key, value, d, value)
    }

    fn fires(&self, value: &f64) -> bool {
        *value > 0.0
    }
}

/// An event rate per second: 0, or in [`MIN_RATE`, `MAX_RATE`].
pub(crate) struct Rate;

impl Kind<f64> for Rate {
    fn set(&self, key: &str, v: &str, slot: &mut f64) -> Result<(), FaultSpecError> {
        *slot = v.parse().map_err(|_| bad_value(key, v, "rate"))?;
        if *slot != 0.0 && !(MIN_RATE..=MAX_RATE).contains(slot) {
            return Err(FaultSpecError(format!(
                "{key} must be 0 or a rate in [{MIN_RATE:e}, {MAX_RATE:e}] per second, got {v}"
            )));
        }
        Ok(())
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &f64, d: &f64) -> fmt::Result {
        changed(f, key, value, d, value)
    }

    fn fires(&self, value: &f64) -> bool {
        *value > 0.0
    }
}

/// A positive, finite duration written in nanoseconds.
pub(crate) struct PositiveNs;

impl Kind<Nanos> for PositiveNs {
    fn set(&self, key: &str, v: &str, slot: &mut Nanos) -> Result<(), FaultSpecError> {
        let ns: f64 = v.parse().map_err(|_| bad_value(key, v, "ns"))?;
        if !ns.is_finite() || ns <= 0.0 {
            return Err(FaultSpecError(format!("{key} must be positive nanoseconds, got {v}")));
        }
        *slot = Nanos::new(ns);
        Ok(())
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &Nanos, d: &Nanos) -> fmt::Result {
        changed(f, key, value, d, value.as_nanos())
    }
}

/// A positive duration written in milliseconds, finite in nanoseconds.
pub(crate) struct Millis;

impl Kind<Nanos> for Millis {
    fn set(&self, key: &str, v: &str, slot: &mut Nanos) -> Result<(), FaultSpecError> {
        let ms: f64 = v.parse().map_err(|_| bad(key, v))?;
        *slot = Nanos::from_millis(ms);
        if !slot.is_finite() || ms <= 0.0 {
            return Err(FaultSpecError(format!(
                "{key} must be positive milliseconds, finite in nanoseconds, got {v}"
            )));
        }
        Ok(())
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &Nanos, d: &Nanos) -> fmt::Result {
        changed(f, key, value, d, value.as_millis())
    }
}

/// A whole number of fleet epochs, at least one.
pub(crate) struct Epochs;

impl Kind<usize> for Epochs {
    fn set(&self, key: &str, v: &str, slot: &mut usize) -> Result<(), FaultSpecError> {
        *slot = v.parse().map_err(|_| bad_value(key, v, "epochs"))?;
        if *slot == 0 {
            return Err(FaultSpecError(format!("{key} must be at least 1 epoch, got {v}")));
        }
        Ok(())
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &usize, d: &usize) -> fmt::Result {
        changed(f, key, value, d, value)
    }
}

/// A count of at least one, and at most `max` if given.
pub(crate) struct Count<T> {
    pub(crate) max: Option<T>,
}

impl<T: FromStr + PartialOrd + Copy + From<u8> + fmt::Display> Kind<T> for Count<T> {
    fn set(&self, key: &str, v: &str, slot: &mut T) -> Result<(), FaultSpecError> {
        *slot = v.parse().map_err(|_| bad(key, v))?;
        match self.max {
            Some(max) if !(T::from(1)..=max).contains(slot) => {
                Err(FaultSpecError(format!("{key} must be in 1..={max}, got {v}")))
            }
            None if *slot < T::from(1) => Err(FaultSpecError(format!("{key} must be positive"))),
            _ => Ok(()),
        }
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &T, d: &T) -> fmt::Result {
        changed(f, key, value, d, value)
    }
}

/// A multiplier in [`lo`, `hi`].
pub(crate) struct Factor {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl Kind<f64> for Factor {
    fn set(&self, key: &str, v: &str, slot: &mut f64) -> Result<(), FaultSpecError> {
        // A bound reads as the shorter of its plain and scientific forms
        // (`1`, `1e3`, `1e-3`).
        let bound = |x: f64| {
            let (plain, sci) = (x.to_string(), format!("{x:e}"));
            if sci.len() < plain.len() {
                sci
            } else {
                plain
            }
        };
        *slot = v.parse().map_err(|_| bad(key, v))?;
        if !(self.lo..=self.hi).contains(slot) {
            let (lo, hi) = (bound(self.lo), bound(self.hi));
            return Err(FaultSpecError(format!("{key} must be in [{lo}, {hi}], got {v}")));
        }
        Ok(())
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &f64, d: &f64) -> fmt::Result {
        changed(f, key, value, d, value)
    }
}

/// A scheduled `epoch:server` crash. Each occurrence adds one crash, and
/// the canonical form writes one pair per crash.
pub(crate) struct CrashAt;

type Crashes = Vec<(usize, usize)>;

impl Kind<Crashes> for CrashAt {
    fn set(&self, key: &str, v: &str, slot: &mut Crashes) -> Result<(), FaultSpecError> {
        let Some((e, s)) = v.split_once(':') else {
            return Err(FaultSpecError(format!("{key} expects epoch:server, got '{v}'")));
        };
        let epoch = e.trim().parse().map_err(|_| FaultSpecError(format!("bad {key} epoch '{e}'")));
        let server =
            s.trim().parse().map_err(|_| FaultSpecError(format!("bad {key} server '{s}'")));
        slot.push((epoch?, server?));
        Ok(())
    }

    fn show(&self, f: &mut Formatter<'_>, key: &str, value: &Crashes, _: &Crashes) -> fmt::Result {
        value.iter().try_for_each(|(epoch, server)| write!(f, ",{key}={epoch}:{server}"))
    }

    fn fires(&self, value: &Crashes) -> bool {
        !value.is_empty()
    }
}

/// Declares a spec's key table: one `"key" => field: Kind` row per key,
/// `seed` first, in canonical order. `$noun` names the grammar in the
/// unknown-key error.
macro_rules! key_table {
    ($spec:ident, $noun:literal { $($key:literal => $field:ident: $kind:expr,)+ }) => {
        impl $spec {
            /// Every key of the grammar, in canonical order.
            pub const KEYS: &'static [&'static str] = &[$($key),+];

            /// `true` if any fault can fire: a probability or rate key is
            /// non-zero, or a crash is scheduled.
            #[must_use]
            pub fn is_active(&self) -> bool {
                use $crate::keys::Kind as _;
                $($kind.fires(&self.$field))||+
            }

            /// Parses a comma-separated `key=value` spec over
            /// [`Self::KEYS`]. The empty string and `"none"` parse to the
            /// default spec; a repeated key overrides the earlier value
            /// (`crash-at` adds one more crash instead).
            ///
            /// # Errors
            ///
            /// Returns a [`FaultSpecError`](crate::FaultSpecError) naming
            /// the first malformed or out-of-range entry.
            pub fn parse(s: &str) -> Result<Self, $crate::FaultSpecError> {
                use $crate::keys::Kind as _;
                let mut spec = Self::default();
                $crate::keys::for_each_pair(s, |key, v| match key {
                    $($key => $kind.set(key, v, &mut spec.$field),)+
                    other => Err($crate::FaultSpecError(format!(
                        concat!("unknown ", $noun, " key '{}'"),
                        other
                    ))),
                })?;
                Ok(spec)
            }
        }

        impl std::fmt::Display for $spec {
            /// The canonical form: the seed, then every field that differs
            /// from the default, in table order. Re-parses to an equal spec.
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                use $crate::keys::Kind as _;
                let default = Self::default();
                $($kind.show(f, $key, &self.$field, &default.$field)?;)+
                Ok(())
            }
        }
    };
}

pub(crate) use key_table;
