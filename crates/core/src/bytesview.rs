//! Raw-byte views over numeric slices.
//!
//! CAROL-FI corrupts *memory*, not typed values: GDB resolves a variable to
//! an address range and flips bits in it. To reproduce that, injectable state
//! must be visible as `&mut [u8]`. These helpers reinterpret slices of plain
//! numeric types as byte slices.
//!
//! Safety argument: the conversions below are sound because
//!
//! * `u8` has alignment 1 and no validity invariants, so *reading* any
//!   initialized memory as bytes is fine;
//! * the source element types (`f32`, `f64`, `i32`, `i64`, `u32`, `u64`)
//!   accept **every** bit pattern as a valid value, so *writing* arbitrary
//!   bytes through the view cannot produce an invalid value — at worst a NaN
//!   or a huge integer, which is exactly the behaviour a particle strike
//!   produces on real hardware;
//! * the returned slice borrows the source mutably, so no aliasing is
//!   possible while the view is alive.
//!
//! Do **not** add implementations for types with validity invariants
//! (`bool`, `char`, enums, references).

/// Marker trait for element types whose every bit pattern is a valid value.
///
/// # Safety
///
/// Implementors must guarantee that any byte sequence of `size_of::<Self>()`
/// bytes is a valid instance of `Self`.
pub unsafe trait PlainBits: Copy + Send + Sync + 'static {}

unsafe impl PlainBits for u8 {}
unsafe impl PlainBits for u16 {}
unsafe impl PlainBits for u32 {}
unsafe impl PlainBits for u64 {}
unsafe impl PlainBits for usize {}
unsafe impl PlainBits for i8 {}
unsafe impl PlainBits for i16 {}
unsafe impl PlainBits for i32 {}
unsafe impl PlainBits for i64 {}
unsafe impl PlainBits for f32 {}
unsafe impl PlainBits for f64 {}

/// Reinterprets a mutable slice of plain numeric values as bytes.
pub fn as_bytes_mut<T: PlainBits>(values: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(values);
    // SAFETY: see module docs — u8 is alignment-1 and valid for all bit
    // patterns, T: PlainBits accepts all bit patterns, and the borrow of
    // `values` is held for the lifetime of the returned slice.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u8>(), len) }
}

/// Reinterprets an immutable slice of plain numeric values as bytes.
pub fn as_bytes<T: PlainBits>(values: &[T]) -> &[u8] {
    let len = std::mem::size_of_val(values);
    // SAFETY: see module docs.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), len) }
}

/// Byte view over a single plain numeric value.
pub fn scalar_bytes_mut<T: PlainBits>(value: &mut T) -> &mut [u8] {
    as_bytes_mut(std::slice::from_mut(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip_through_bytes() {
        let mut v = [1.0f64, -2.5, 0.0];
        let bytes = as_bytes_mut(&mut v);
        assert_eq!(bytes.len(), 24);
        // Flip the sign bit of the first element (little-endian: MSB of byte 7).
        bytes[7] ^= 0x80;
        assert_eq!(v[0], -1.0);
        assert_eq!(v[1], -2.5);
    }

    #[test]
    fn i32_view_length_and_content() {
        let mut v = [0x0102_0304i32, -1];
        let bytes = as_bytes(&v);
        assert_eq!(bytes.len(), 8);
        // Little-endian layout on all supported targets.
        assert_eq!(&bytes[..4], &[0x04, 0x03, 0x02, 0x01]);
        let bytes = as_bytes_mut(&mut v);
        bytes[4..8].copy_from_slice(&[0, 0, 0, 0]);
        assert_eq!(v[1], 0);
    }

    #[test]
    fn scalar_view_mutates_in_place() {
        let mut x = 0u32;
        scalar_bytes_mut(&mut x)[1] = 0xff;
        assert_eq!(x, 0xff00);
    }

    #[test]
    fn empty_slice_gives_empty_bytes() {
        let mut v: [f32; 0] = [];
        assert!(as_bytes_mut(&mut v).is_empty());
    }

    #[test]
    fn any_bit_pattern_is_tolerated_by_f32() {
        let mut v = [0.0f32];
        let bytes = as_bytes_mut(&mut v);
        bytes.copy_from_slice(&[0xff, 0xff, 0xff, 0x7f]); // a NaN pattern
        assert!(v[0].is_nan());
    }
}
