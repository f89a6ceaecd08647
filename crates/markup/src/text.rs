//! Text that appends itself to a `String`.
//!
//! A host request's text — a page's hrefs and paragraphs, a session
//! step's URL and form fields — is mostly string pieces and integers.
//! [`Text`] writes those straight into the caller's buffer: strings as
//! they are, integers through a stack buffer of digits, and a tuple of
//! texts as their concatenation, so `("/shop/buy?sku=", sku)` writes
//! what `format_args!("/shop/buy?sku={sku}")` formats, with no
//! formatter in between. [`fmt::Arguments`] is a `Text` too, the one
//! bridge to [`Display`](fmt::Display), for the call sites that format
//! floats or other `Display` values. [`find_any`] finds the first of a
//! few bytes a word at a time, for the escapers that scan what was
//! written.
//!
//! ```
//! use markup::text::{Hex8, Text};
//! let mut out = String::new();
//! ("q=", -42i64, '+', Hex8(0xbeef)).write_to(&mut out);
//! assert_eq!(out, format!("q={}+{:08x}", -42, 0xbeef));
//! ```

use std::fmt::{self, Write as _};

/// Text that appends itself to a `String`: exactly the bytes its
/// `Display` form would write, for the types that have one.
pub trait Text {
    /// Appends this text to `out`.
    fn write_to(&self, out: &mut String);
}

impl<T: Text + ?Sized> Text for &T {
    #[inline]
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

impl Text for str {
    #[inline]
    fn write_to(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Text for String {
    #[inline]
    fn write_to(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Text for char {
    #[inline]
    fn write_to(&self, out: &mut String) {
        out.push(*self);
    }
}

impl Text for fmt::Arguments<'_> {
    fn write_to(&self, out: &mut String) {
        match self.as_str() {
            Some(s) => out.push_str(s),
            // Writing into a `String` cannot fail.
            None => {
                let _ = out.write_fmt(*self);
            }
        }
    }
}

/// Appends `n` in decimal. The digits are written backwards into a
/// stack buffer (39 digits hold `u128::MAX`), in 64-bit arithmetic once
/// the value fits.
fn push_decimal(out: &mut String, mut n: u128) {
    let mut buf = [0u8; 39];
    let mut i = buf.len();
    while n > u128::from(u64::MAX) {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    let mut n = n as u64;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

macro_rules! unsigned_text {
    ($($t:ty)*) => {$(
        impl Text for $t {
            #[inline]
            fn write_to(&self, out: &mut String) {
                push_decimal(out, *self as u128);
            }
        }
    )*};
}

macro_rules! signed_text {
    ($($t:ty)*) => {$(
        impl Text for $t {
            #[inline]
            fn write_to(&self, out: &mut String) {
                if *self < 0 {
                    out.push('-');
                }
                push_decimal(out, self.unsigned_abs() as u128);
            }
        }
    )*};
}

unsigned_text!(u8 u16 u32 u64 u128 usize);
signed_text!(i8 i16 i32 i64 i128 isize);

macro_rules! tuple_text {
    ($($name:ident)+) => {
        impl<$($name: Text),+> Text for ($($name,)+) {
            #[inline]
            #[allow(non_snake_case)]
            fn write_to(&self, out: &mut String) {
                let ($($name,)+) = self;
                $($name.write_to(out);)+
            }
        }
    };
}

tuple_text!(A);
tuple_text!(A B);
tuple_text!(A B C);
tuple_text!(A B C D);
tuple_text!(A B C D E);
tuple_text!(A B C D E F);

/// A `u32` as eight lowercase hex digits, zero-padded: what
/// `format!("{:08x}", n)` writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hex8(pub u32);

impl Text for Hex8 {
    fn write_to(&self, out: &mut String) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut buf = [0u8; 8];
        for (i, digit) in buf.iter_mut().enumerate() {
            *digit = DIGITS[(self.0 >> (28 - 4 * i) & 0xf) as usize];
        }
        out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
    }
}

/// The index of the first byte of `bytes` that is one of `set`. The
/// bytes are read eight at a time: a word holds `b` exactly when
/// `word ^ (b in every byte)` has a zero byte, and the classic zero-byte
/// test marks the first such byte exactly (a borrow can only mark bytes
/// after it), so the lowest mark over all of `set` is the first match.
pub fn find_any<const N: usize>(bytes: &[u8], set: [u8; N]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("a chunk of eight"));
        let marks = set.iter().fold(0, |marks, &b| {
            let x = word ^ (LO * u64::from(b));
            marks | (x.wrapping_sub(LO) & !x & HI)
        });
        if marks != 0 {
            return Some(at + marks.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|b| set.contains(b));
    tail.map(|i| at + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn to_string(text: impl Text) -> String {
        let mut out = String::new();
        text.write_to(&mut out);
        out
    }

    /// Asserts that every value in `values` writes what `Display` writes.
    fn writes_like_display<T: Text + fmt::Display>(
        values: impl IntoIterator<Item = T>,
    ) -> Result<(), TestCaseError> {
        for n in values {
            prop_assert_eq!(to_string(&n), n.to_string());
        }
        Ok(())
    }

    macro_rules! integers_write_like_display {
        ($($name:ident: $t:ty = $random:expr,)*) => {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(512))]
                $(
                    /// 0, ±1 (-1 wraps to `MAX` when unsigned), the
                    /// extremes and random values.
                    #[test]
                    fn $name(random in $random) {
                        let zero: $t = 0;
                        writes_like_display([
                            zero,
                            1,
                            zero.wrapping_sub(1),
                            <$t>::MIN,
                            <$t>::MIN + 1,
                            <$t>::MAX,
                            random,
                        ])?;
                    }
                )*
            }
        };
    }

    integers_write_like_display! {
        u8_writes_like_display: u8 = any::<u8>(),
        u16_writes_like_display: u16 = any::<u16>(),
        u32_writes_like_display: u32 = any::<u32>(),
        u64_writes_like_display: u64 = any::<u64>(),
        u128_writes_like_display: u128 = any::<u128>(),
        usize_writes_like_display: usize = any::<usize>(),
        i8_writes_like_display: i8 = any::<i8>(),
        i16_writes_like_display: i16 = any::<i16>(),
        i32_writes_like_display: i32 = any::<i32>(),
        i64_writes_like_display: i64 = any::<i64>(),
        i128_writes_like_display: i128 = any::<u128>().prop_map(|n| n as i128),
        isize_writes_like_display: isize = any::<isize>(),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A tuple writes the concatenation of its pieces, as the
        /// `format_args!` it stands for formats them.
        #[test]
        fn tuples_write_like_format_args(
            a in ".{0,8}",
            b in any::<i64>(),
            c in "[a-z&<é€日]",
            d in any::<u32>(),
        ) {
            let c = c.chars().next().expect("one character");
            prop_assert_eq!(
                to_string((&a, b, c, Hex8(d), a.as_str())),
                format!("{a}{b}{c}{d:08x}{a}")
            );
            prop_assert_eq!(
                to_string(format_args!("{a}{b}{c}{d:08x}")),
                format!("{a}{b}{c}{d:08x}")
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The word-at-a-time search finds the byte a plain scan finds,
        /// at every position, in runs of needles, and in the tail.
        #[test]
        fn find_any_finds_the_first_needle(
            text in "[a-e&<>\"é]{0,40}",
            skip in 0usize..8,
        ) {
            let bytes = &text.as_bytes()[skip.min(text.len())..];
            let set = [b'&', b'<', b'>', b'"'];
            prop_assert_eq!(
                find_any(bytes, set),
                bytes.iter().position(|b| set.contains(b))
            );
            prop_assert_eq!(find_any(bytes, [b'e']), bytes.iter().position(|&b| b == b'e'));
            prop_assert_eq!(find_any(bytes, [0xa9]), bytes.iter().position(|&b| b == 0xa9));
        }
    }

    #[test]
    fn arguments_write_literals_and_formatted_values() {
        assert_eq!(to_string(format_args!("plain")), "plain");
        assert_eq!(
            to_string(format_args!("{:.1}", 36.75)),
            format!("{:.1}", 36.75)
        );
        assert_eq!(to_string(Hex8(0)), "00000000");
        assert_eq!(to_string(Hex8(u32::MAX)), "ffffffff");
    }
}
