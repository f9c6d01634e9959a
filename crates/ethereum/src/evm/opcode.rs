//! The EVM-lite instruction set.

use blockpart_types::Gas;

/// One EVM-lite instruction.
///
/// Stack effects are written `(inputs) -> (outputs)`, top of stack last.
/// Addresses travel on the stack as their dense `u64` index (see
/// [`Address::from_index`](blockpart_types::Address::from_index)).
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::evm::Op;
///
/// let add = Op::Add;
/// assert!(add.gas_cost().get() > 0);
/// assert_eq!(format!("{add:?}"), "Add");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Halt successfully. `() -> ()`
    Stop,
    /// Push an immediate. `() -> (x)`
    Push(u64),
    /// Discard the top of stack. `(x) -> ()`
    Pop,
    /// Wrapping addition. `(a, b) -> (a + b)`
    Add,
    /// Saturating subtraction. `(a, b) -> (a - b)`
    Sub,
    /// Wrapping multiplication. `(a, b) -> (a · b)`
    Mul,
    /// Division; `x / 0 = 0` like the real EVM. `(a, b) -> (a / b)`
    Div,
    /// Modulo; `x % 0 = 0`. `(a, b) -> (a % b)`
    Mod,
    /// Duplicate the n-th item from the top (0 = top). `(…) -> (…, x)`
    Dup(u8),
    /// Swap top with the n-th item below it (1-based). `(…)-> (…)`
    Swap(u8),
    /// Push the caller's address index. `() -> (caller)`
    Caller,
    /// Push the value sent with the call. `() -> (value)`
    CallValue,
    /// Push the executing contract's address index. `() -> (self)`
    SelfAddr,
    /// Push the block timestamp in seconds. `() -> (time)`
    BlockTime,
    /// Push the balance of an address. `(addr) -> (balance)`
    Balance,
    /// Push a deterministic pseudo-random word drawn from the transaction
    /// entropy. `() -> (r)`
    Rand,
    /// Load from contract storage. `(key) -> (value)`
    SLoad,
    /// Store to contract storage. `(key, value) -> ()`
    SStore,
    /// Transfer ether without code execution. `(to, value) -> ()`
    Transfer,
    /// Call another account or contract, transferring `value` and passing
    /// one argument word. `(to, value, arg) -> (ret)`
    Call,
    /// Create a contract from a template with an endowment; pushes the new
    /// contract's address index. `(template, endow) -> (addr)`
    Create,
    /// Unconditional jump to an instruction index. `() -> ()`
    Jump(u32),
    /// Jump if the popped condition is non-zero. `(cond) -> ()`
    JumpI(u32),
    /// Emit a log entry (no graph effect; costs gas). `(x) -> ()`
    Log,
    /// Revert the transaction. `() -> ()`
    Revert,
}

impl Op {
    /// The gas charged for executing this instruction, loosely following
    /// the yellow paper's relative magnitudes (storage ≫ call ≫ arithmetic).
    pub fn gas_cost(&self) -> Gas {
        let units = match self {
            Op::Stop => 0,
            Op::Push(_) | Op::Pop | Op::Dup(_) | Op::Swap(_) => 3,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => 5,
            Op::Caller | Op::CallValue | Op::SelfAddr | Op::BlockTime | Op::Rand => 2,
            Op::Balance => 400,
            Op::SLoad => 200,
            Op::SStore => 5_000,
            Op::Transfer => 9_000,
            Op::Call => 700,
            Op::Create => 32_000,
            Op::Jump(_) => 8,
            Op::JumpI(_) => 10,
            Op::Log => 375,
            Op::Revert => 0,
        };
        Gas::new(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_dwarfs_arithmetic() {
        assert!(Op::SStore.gas_cost() > Op::Add.gas_cost());
        assert!(Op::Create.gas_cost() > Op::Call.gas_cost());
        assert!(Op::Transfer.gas_cost() > Op::SLoad.gas_cost());
    }

    #[test]
    fn terminators_are_free() {
        assert_eq!(Op::Stop.gas_cost(), Gas::ZERO);
        assert_eq!(Op::Revert.gas_cost(), Gas::ZERO);
    }

    #[test]
    fn ops_are_copy_and_comparable() {
        let a = Op::Push(7);
        let b = a;
        assert_eq!(a, b);
        assert_ne!(Op::Push(7), Op::Push(8));
    }
}
