//! Descriptors (`GrB_Descriptor`): per-call modifiers controlling input
//! transposition, mask interpretation, output replacement, and — as
//! SuiteSparse/GraphBLAST extensions — kernel-method hints.

/// Which algorithm `mxm` should use (§II.A of the paper describes all
/// three, each with masked variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MxmMethod {
    /// Let the library choose from the operand shapes and mask.
    #[default]
    Auto,
    /// Gustavson's row-wise saxpy method with a sparse accumulator.
    Gustavson,
    /// Dot-product method: best with a mask or when the output is small.
    Dot,
    /// Heap (multi-way merge) method: best for very sparse operands.
    Heap,
}

/// Which traversal direction `mxv`/`vxm` should use (the GraphBLAST
/// push/pull direction optimization of §II.E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Switch on the vector's sparsity crossing a threshold.
    #[default]
    Auto,
    /// Force push (saxpy / SpMSpV over the sparse vector).
    Push,
    /// Force pull (dot products / SpMV over the dense vector).
    Pull,
}

/// Per-operation options. `Default` gives the C API defaults: no
/// transposes, mask by value, no complement, no replace.
///
/// The method and direction fields are hints; nothing here picks a
/// kernel's inner loop. The semiring's monoid picks that (ANY, terminal,
/// or a plain fold), and a PAIR multiply skips the value loads. No call
/// can opt out, because every loop gives the same answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Use `A`ᵀ in place of the first matrix input (`GrB_INP0`+`GrB_TRAN`).
    pub transpose_a: bool,
    /// Use `B`ᵀ in place of the second matrix input (`GrB_INP1`+`GrB_TRAN`).
    pub transpose_b: bool,
    /// Complement the mask (`GrB_COMP`): entries *not* selected by the mask
    /// are written.
    pub mask_complement: bool,
    /// Use only the pattern of the mask, ignoring values (`GrB_STRUCTURE`).
    pub mask_structural: bool,
    /// Clear the output before writing the masked result (`GrB_REPLACE`).
    pub replace: bool,
    /// mxm kernel selection hint (`GxB_AxB_METHOD`).
    pub mxm_method: MxmMethod,
    /// mxv/vxm traversal direction hint.
    pub direction: Direction,
}

impl Default for Descriptor {
    fn default() -> Self {
        Self::new()
    }
}

impl Descriptor {
    /// The default descriptor.
    pub const fn new() -> Self {
        Descriptor {
            transpose_a: false,
            transpose_b: false,
            mask_complement: false,
            mask_structural: false,
            replace: false,
            mxm_method: MxmMethod::Auto,
            direction: Direction::Auto,
        }
    }

    /// Builder: transpose the first input.
    pub const fn transpose_a(mut self) -> Self {
        self.transpose_a = true;
        self
    }

    /// Builder: transpose the second input.
    pub const fn transpose_b(mut self) -> Self {
        self.transpose_b = true;
        self
    }

    /// Builder: complement the mask.
    pub const fn complement(mut self) -> Self {
        self.mask_complement = true;
        self
    }

    /// Builder: use the mask structurally (pattern only).
    pub const fn structural(mut self) -> Self {
        self.mask_structural = true;
        self
    }

    /// Builder: replace the output under the mask.
    pub const fn replace(mut self) -> Self {
        self.replace = true;
        self
    }

    /// Builder: select an explicit mxm method.
    pub const fn method(mut self, m: MxmMethod) -> Self {
        self.mxm_method = m;
        self
    }

    /// Builder: select an explicit mxv/vxm direction.
    pub const fn direction(mut self, d: Direction) -> Self {
        self.direction = d;
        self
    }
}

/// The descriptor used by the Fig. 2 BFS: transpose the matrix, complement
/// the mask structurally, and replace the output
/// (`Desc_TranA_ScmpM_Replace` in the paper's C listing).
pub const DESC_TRAN_COMP_REPLACE: Descriptor =
    Descriptor::new().transpose_a().complement().structural().replace();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_c_api_defaults() {
        let d = Descriptor::default();
        assert!(!d.transpose_a && !d.transpose_b);
        assert!(!d.mask_complement && !d.mask_structural && !d.replace);
        assert_eq!(d.mxm_method, MxmMethod::Auto);
        assert_eq!(d.direction, Direction::Auto);
        assert_eq!(d, Descriptor::new());
    }

    #[test]
    fn builder_composes() {
        let d = Descriptor::new().transpose_a().complement().replace();
        assert!(d.transpose_a && d.mask_complement && d.replace);
        assert!(!d.transpose_b && !d.mask_structural);
    }

    #[test]
    fn fig2_descriptor() {
        let d = DESC_TRAN_COMP_REPLACE;
        assert!(d.transpose_a && d.mask_complement && d.mask_structural && d.replace);
    }
}
