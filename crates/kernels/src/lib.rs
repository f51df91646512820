//! Injectable Rust ports of the six SC'17 benchmarks.
pub mod clamr;
pub mod dgemm;
pub mod hotspot;
pub mod lavamd;
pub mod lud;
pub mod nw;
pub mod par;
pub mod quantize;
pub mod registry;

pub use registry::{build, golden, Benchmark, SizeClass};

/// Every byte a target declares through `FaultTarget::state`, in
/// declaration order: two targets with equal digests are in the same state,
/// whatever fields are added later.
#[cfg(test)]
fn state_digest(target: &mut impl carolfi::FaultTarget) -> Vec<u8> {
    struct Digest(Vec<u8>);
    impl<'a> carolfi::target::StateVisitor<'a> for Digest {
        fn field(&mut self, _: Option<&carolfi::VarInfo>, bytes: &'a mut [u8], _: usize, _: bool) -> std::ops::ControlFlow<()> {
            self.0.extend_from_slice(bytes);
            std::ops::ControlFlow::Continue(())
        }
    }
    let mut digest = Digest(Vec::new());
    let _ = target.state(&mut digest);
    digest.0
}
