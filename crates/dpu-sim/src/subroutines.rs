//! Software subroutines for operations the DPU lacks hardware for.
//!
//! The DPU is a 32-bit integer machine with no hardware for 32-bit
//! multiplication/division or any floating-point arithmetic. The UPMEM
//! compiler lowers those operations to compiler-rt style subroutines
//! (`__mulsi3`, `__addsf3`, `__divsf3`, …), whose cycle cost dominates
//! high-precision kernels (paper §3.3, Table 3.1, Fig. 3.2).
//!
//! In the simulator a subroutine executes *functionally* in one step but
//! occupies [`Subroutine::instruction_count`] issue slots in the pipeline —
//! exactly the timing footprint of a real software routine on a
//! single-instruction-in-flight core. The instruction counts below are
//! **calibrated against Table 3.1 of the paper**: with the Fig. 3.1
//! profiling harness (24 overhead slots, see [`crate::machine`] docs) and a
//! single tasklet issuing one instruction per 11-cycle pipeline rotation,
//! the measured totals land within ~1.5 % of the paper's numbers:
//!
//! | operation (O0, max operands)   | paper cycles | simulator |
//! |--------------------------------|--------------|-----------|
//! | 8/16/32-bit add, sub           | 272          | 275       |
//! | 8-bit multiply (hardware)      | 272          | 275       |
//! | 16-bit multiply (`__mulsi3`)   | 608          | 605       |
//! | 32-bit multiply (`__mulsi3`)   | 800          | 803       |
//! | fixed-point divide (`__divsi3`)| 368          | 374       |
//! | float add (`__addsf3`)         | 896          | 891       |
//! | float sub (`__subsf3`)         | 928          | 924       |
//! | float mul (`__mulsf3`)         | 2528         | 2530      |
//! | float div (`__divsf3`)         | 12064        | 12067     |

use serde::{Deserialize, Serialize};
use std::fmt;

/// A compiler-runtime subroutine invoked via [`crate::isa::Instr::CallSub`].
///
/// The names mirror the routines the paper observed in `dpu-profiling`
/// output (Fig. 3.2 and Fig. 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Subroutine {
    /// 32-bit integer multiplication (also used for 16-bit under `-O0`;
    /// early-exits when both operands fit in 16 bits).
    Mulsi3,
    /// 16-bit-operand path through `__mulsi3` (separate entry so the
    /// calibrated cost of Table 3.1's 16-bit row can be charged).
    Mulsi3Short,
    /// 64-bit integer multiplication.
    Muldi3,
    /// 32-bit signed integer division.
    Divsi3,
    /// 32-bit signed integer remainder.
    Modsi3,
    /// `f32` addition.
    Addsf3,
    /// `f32` subtraction.
    Subsf3,
    /// `f32` multiplication.
    Mulsf3,
    /// `f32` division.
    Divsf3,
    /// `f32` comparison (`<`); the paper's profile lists `__ltsf2`.
    Ltsf2,
    /// `f32` comparison (`>`).
    Gtsf2,
    /// `i32` → `f32` conversion (`__floatsisf`).
    Floatsisf,
    /// `f32` → `i32` conversion (`__fixsfsi`).
    Fixsfsi,
    /// `f64` addition (the paper's text lists `__adddf3`).
    Adddf3,
    /// `f64` subtraction.
    Subdf3,
    /// `f64` multiplication (`__muldf3`).
    Muldf3,
    /// `f64` division.
    Divdf3,
    /// `f64` comparison (`<`).
    Ltdf2,
    /// `i32` → `f64` conversion.
    Floatsidf,
    /// `f64` → `i32` conversion.
    Fixdfsi,
    /// `f64` → `f32` truncation.
    Truncdfsf2,
    /// `f32` → `f64` extension.
    Extendsfdf2,
}

impl Subroutine {
    /// All subroutine kinds, in a stable order (used by the profiler report).
    pub const ALL: [Subroutine; 22] = [
        Subroutine::Mulsi3,
        Subroutine::Mulsi3Short,
        Subroutine::Muldi3,
        Subroutine::Divsi3,
        Subroutine::Modsi3,
        Subroutine::Addsf3,
        Subroutine::Subsf3,
        Subroutine::Mulsf3,
        Subroutine::Divsf3,
        Subroutine::Ltsf2,
        Subroutine::Gtsf2,
        Subroutine::Floatsisf,
        Subroutine::Fixsfsi,
        Subroutine::Adddf3,
        Subroutine::Subdf3,
        Subroutine::Muldf3,
        Subroutine::Divdf3,
        Subroutine::Ltdf2,
        Subroutine::Floatsidf,
        Subroutine::Fixdfsi,
        Subroutine::Truncdfsf2,
        Subroutine::Extendsfdf2,
    ];

    /// Position of the routine in [`Subroutine::ALL`]: the index of the
    /// fixed-size per-routine counters the interpreter keeps
    /// ([`crate::profiler::SubroutineCounts`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// True when entering the routine with divisor `b` raises
    /// [`crate::Error::DivisionByZero`] (the integer division routines).
    #[must_use]
    pub(crate) fn divides_by_zero(self, b: u32) -> bool {
        matches!(self, Subroutine::Divsi3 | Subroutine::Modsi3) && b == 0
    }

    /// The linker-level name of the routine as it appears in profiling
    /// output on real hardware.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Subroutine::Mulsi3 | Subroutine::Mulsi3Short => "__mulsi3",
            Subroutine::Muldi3 => "__muldi3",
            Subroutine::Divsi3 => "__divsi3",
            Subroutine::Modsi3 => "__modsi3",
            Subroutine::Addsf3 => "__addsf3",
            Subroutine::Subsf3 => "__subsf3",
            Subroutine::Mulsf3 => "__mulsf3",
            Subroutine::Divsf3 => "__divsf3",
            Subroutine::Ltsf2 => "__ltsf2",
            Subroutine::Gtsf2 => "__gtsf2",
            Subroutine::Floatsisf => "__floatsisf",
            Subroutine::Fixsfsi => "__fixsfsi",
            Subroutine::Adddf3 => "__adddf3",
            Subroutine::Subdf3 => "__subdf3",
            Subroutine::Muldf3 => "__muldf3",
            Subroutine::Divdf3 => "__divdf3",
            Subroutine::Ltdf2 => "__ltdf2",
            Subroutine::Floatsidf => "__floatsidf",
            Subroutine::Fixdfsi => "__fixdfsi",
            Subroutine::Truncdfsf2 => "__truncdfsf2",
            Subroutine::Extendsfdf2 => "__extendsfdf2",
        }
    }

    /// True for the floating-point family (the routines the LUT
    /// transformation of paper §4.1.4 eliminates).
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(
            self,
            Subroutine::Addsf3
                | Subroutine::Subsf3
                | Subroutine::Mulsf3
                | Subroutine::Divsf3
                | Subroutine::Ltsf2
                | Subroutine::Gtsf2
                | Subroutine::Floatsisf
                | Subroutine::Fixsfsi
                | Subroutine::Adddf3
                | Subroutine::Subdf3
                | Subroutine::Muldf3
                | Subroutine::Divdf3
                | Subroutine::Ltdf2
                | Subroutine::Floatsidf
                | Subroutine::Fixdfsi
                | Subroutine::Truncdfsf2
                | Subroutine::Extendsfdf2
        )
    }

    /// Number of DPU instructions the routine executes (calibrated; see the
    /// module docs for the derivation from Table 3.1).
    #[must_use]
    pub fn instruction_count(self) -> u64 {
        match self {
            Subroutine::Mulsi3 => 49,
            Subroutine::Mulsi3Short => 31,
            Subroutine::Muldi3 => 96,
            Subroutine::Divsi3 => 10,
            Subroutine::Modsi3 => 12,
            Subroutine::Addsf3 => 57,
            Subroutine::Subsf3 => 60,
            Subroutine::Mulsf3 => 206,
            Subroutine::Divsf3 => 1073,
            Subroutine::Ltsf2 => 12,
            Subroutine::Gtsf2 => 12,
            Subroutine::Floatsisf => 21,
            Subroutine::Fixsfsi => 19,
            // f64 family: not present in Table 3.1; estimated at ~2x the
            // calibrated f32 routine (double-word mantissa arithmetic).
            Subroutine::Adddf3 => 118,
            Subroutine::Subdf3 => 124,
            Subroutine::Muldf3 => 430,
            Subroutine::Divdf3 => 2150,
            Subroutine::Ltdf2 => 24,
            Subroutine::Floatsidf => 42,
            Subroutine::Fixdfsi => 38,
            Subroutine::Truncdfsf2 => 16,
            Subroutine::Extendsfdf2 => 14,
        }
    }

    /// Functional evaluation of the routine over two register operands.
    ///
    /// Floating-point routines reinterpret the register bits as `f32`.
    /// Division routines return 0 on a zero divisor and let the interpreter
    /// surface [`crate::Error::DivisionByZero`]; callers of this method see
    /// the wrapped behaviour only.
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        let fa = f32::from_bits(a);
        let fb = f32::from_bits(b);
        match self {
            Subroutine::Mulsi3 | Subroutine::Mulsi3Short => a.wrapping_mul(b),
            Subroutine::Muldi3 => (a as u64).wrapping_mul(b as u64) as u32,
            Subroutine::Divsi3 => {
                let (ia, ib) = (a as i32, b as i32);
                if ib == 0 {
                    0
                } else {
                    ia.wrapping_div(ib) as u32
                }
            }
            Subroutine::Modsi3 => {
                let (ia, ib) = (a as i32, b as i32);
                if ib == 0 {
                    0
                } else {
                    ia.wrapping_rem(ib) as u32
                }
            }
            Subroutine::Addsf3 => (fa + fb).to_bits(),
            Subroutine::Subsf3 => (fa - fb).to_bits(),
            Subroutine::Mulsf3 => (fa * fb).to_bits(),
            Subroutine::Divsf3 => (fa / fb).to_bits(),
            Subroutine::Ltsf2 => u32::from(fa < fb),
            Subroutine::Gtsf2 => u32::from(fa > fb),
            Subroutine::Floatsisf => (a as i32 as f32).to_bits(),
            Subroutine::Fixsfsi => (fa as i32) as u32,
            // f64 routines are modelled on the f32 lane: the simulator's
            // registers are 32-bit and the paper only profiles their cost.
            Subroutine::Adddf3 => (fa + fb).to_bits(),
            Subroutine::Subdf3 => (fa - fb).to_bits(),
            Subroutine::Muldf3 => (fa * fb).to_bits(),
            Subroutine::Divdf3 => (fa / fb).to_bits(),
            Subroutine::Ltdf2 => u32::from(fa < fb),
            Subroutine::Floatsidf => (a as i32 as f32).to_bits(),
            Subroutine::Fixdfsi => (fa as i32) as u32,
            Subroutine::Truncdfsf2 => a,
            Subroutine::Extendsfdf2 => a,
        }
    }
}

impl fmt::Display for Subroutine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_routines_flagged() {
        assert!(Subroutine::Addsf3.is_float());
        assert!(Subroutine::Divsf3.is_float());
        assert!(Subroutine::Ltsf2.is_float());
        assert!(!Subroutine::Mulsi3.is_float());
        assert!(!Subroutine::Divsi3.is_float());
    }

    #[test]
    fn eval_integer_routines() {
        assert_eq!(Subroutine::Mulsi3.eval(7, 6), 42);
        assert_eq!(Subroutine::Mulsi3.eval(u32::MAX, 2), u32::MAX.wrapping_mul(2));
        assert_eq!(Subroutine::Divsi3.eval(42, 6), 7);
        assert_eq!(Subroutine::Divsi3.eval((-42i32) as u32, 6), (-7i32) as u32);
        assert_eq!(Subroutine::Modsi3.eval(43, 6), 1);
        assert_eq!(Subroutine::Divsi3.eval(1, 0), 0);
    }

    #[test]
    fn eval_float_routines() {
        let a = 1.5f32.to_bits();
        let b = 2.5f32.to_bits();
        assert_eq!(f32::from_bits(Subroutine::Addsf3.eval(a, b)), 4.0);
        assert_eq!(f32::from_bits(Subroutine::Mulsf3.eval(a, b)), 3.75);
        assert_eq!(f32::from_bits(Subroutine::Subsf3.eval(b, a)), 1.0);
        assert_eq!(Subroutine::Ltsf2.eval(a, b), 1);
        assert_eq!(Subroutine::Ltsf2.eval(b, a), 0);
        assert_eq!(f32::from_bits(Subroutine::Floatsisf.eval(3, 0)), 3.0);
        assert_eq!(Subroutine::Fixsfsi.eval(7.9f32.to_bits(), 0), 7);
    }

    #[test]
    fn costs_ordered_like_table_3_1() {
        // Table 3.1 ordering: fadd < fsub < fmul < fdiv, and
        // short multiply < full multiply.
        assert!(Subroutine::Addsf3.instruction_count() < Subroutine::Subsf3.instruction_count());
        assert!(Subroutine::Subsf3.instruction_count() < Subroutine::Mulsf3.instruction_count());
        assert!(Subroutine::Mulsf3.instruction_count() < Subroutine::Divsf3.instruction_count());
        assert!(
            Subroutine::Mulsi3Short.instruction_count() < Subroutine::Mulsi3.instruction_count()
        );
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, sub) in Subroutine::ALL.iter().enumerate() {
            assert_eq!(sub.index(), i, "{sub:?}");
        }
    }

    #[test]
    fn only_integer_division_faults_on_a_zero_divisor() {
        for sub in Subroutine::ALL {
            let division = matches!(sub, Subroutine::Divsi3 | Subroutine::Modsi3);
            assert_eq!(sub.divides_by_zero(0), division, "{sub:?}");
            assert!(!sub.divides_by_zero(3), "{sub:?}");
        }
    }

    #[test]
    fn symbols_match_profiler_names() {
        assert_eq!(Subroutine::Mulsi3.symbol(), "__mulsi3");
        assert_eq!(Subroutine::Ltsf2.symbol(), "__ltsf2");
        assert_eq!(Subroutine::Floatsisf.symbol(), "__floatsisf");
    }
}
