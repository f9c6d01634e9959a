//! Gas schedules: per-opcode prices, and the EIP-150 repricing.
//!
//! The September–October 2016 attack worked because pre-fork Ethereum
//! priced state-reading opcodes far below their real I/O cost, so an
//! attacker could touch millions of fresh accounts for pennies. EIP-150
//! ("Tangerine Whistle") repriced them. Modelling both schedules lets the
//! substrate reproduce the economics: the attack mix is cheap under the
//! frontier schedule and an order of magnitude costlier after the fork.

use blockpart_types::Gas;

use crate::evm::Op;

/// Per-opcode gas prices.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::evm::{GasSchedule, Op};
///
/// let pre = GasSchedule::frontier();
/// let post = GasSchedule::eip150();
/// assert!(post.cost(&Op::Balance).get() > pre.cost(&Op::Balance).get() * 10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GasSchedule {
    /// Flat cost charged for every transaction.
    pub tx_base: u64,
    /// Stack manipulation (`PUSH`, `POP`, `DUP`, `SWAP`).
    pub stack: u64,
    /// Arithmetic (`ADD` … `MOD`).
    pub arith: u64,
    /// Environment reads (`CALLER`, `CALLVALUE`, `SELFADDR`,
    /// `BLOCKTIME`, `RAND`).
    pub env: u64,
    /// `BALANCE` — the opcode family the 2016 attack abused.
    pub balance: u64,
    /// `SLOAD`.
    pub sload: u64,
    /// `SSTORE`.
    pub sstore: u64,
    /// `TRANSFER` (value transfer surcharge).
    pub transfer: u64,
    /// `CALL` base cost.
    pub call: u64,
    /// `CREATE`.
    pub create: u64,
    /// `JUMP`.
    pub jump: u64,
    /// `JUMPI`.
    pub jumpi: u64,
    /// `LOG`.
    pub log: u64,
}

impl GasSchedule {
    /// The launch-era prices: state reads are nearly free, which is what
    /// made the 2016 spam economically viable.
    pub const fn frontier() -> GasSchedule {
        GasSchedule {
            tx_base: 21_000,
            stack: 3,
            arith: 5,
            env: 2,
            balance: 20,
            sload: 50,
            sstore: 5_000,
            transfer: 9_000,
            call: 40,
            create: 32_000,
            jump: 8,
            jumpi: 10,
            log: 375,
        }
    }

    /// The EIP-150 repricing (October 2016): `BALANCE` 20→400,
    /// `SLOAD` 50→200, `CALL` 40→700.
    pub const fn eip150() -> GasSchedule {
        GasSchedule {
            balance: 400,
            sload: 200,
            call: 700,
            ..GasSchedule::frontier()
        }
    }

    /// The price of one instruction under this schedule.
    pub fn cost(&self, op: &Op) -> Gas {
        let units = match op {
            Op::Stop | Op::Revert => 0,
            Op::Push(_) | Op::Pop | Op::Dup(_) | Op::Swap(_) => self.stack,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => self.arith,
            Op::Caller | Op::CallValue | Op::SelfAddr | Op::BlockTime | Op::Rand => self.env,
            Op::Balance => self.balance,
            Op::SLoad => self.sload,
            Op::SStore => self.sstore,
            Op::Transfer => self.transfer,
            Op::Call => self.call,
            Op::Create => self.create,
            Op::Jump(_) => self.jump,
            Op::JumpI(_) => self.jumpi,
            Op::Log => self.log,
        };
        Gas::new(units)
    }
}

impl Default for GasSchedule {
    /// Defaults to the post-fork (EIP-150) prices.
    fn default() -> Self {
        GasSchedule::eip150()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eip150_reprices_io_only() {
        let pre = GasSchedule::frontier();
        let post = GasSchedule::eip150();
        assert_eq!(post.balance, 400);
        assert_eq!(post.sload, 200);
        assert_eq!(post.call, 700);
        // unchanged categories
        assert_eq!(pre.sstore, post.sstore);
        assert_eq!(pre.tx_base, post.tx_base);
        assert_eq!(pre.create, post.create);
    }

    #[test]
    fn default_is_post_fork() {
        assert_eq!(GasSchedule::default(), GasSchedule::eip150());
    }

    #[test]
    fn cost_covers_every_opcode() {
        let s = GasSchedule::eip150();
        for op in [
            Op::Stop,
            Op::Push(1),
            Op::Pop,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Mod,
            Op::Dup(0),
            Op::Swap(1),
            Op::Caller,
            Op::CallValue,
            Op::SelfAddr,
            Op::BlockTime,
            Op::Rand,
            Op::Balance,
            Op::SLoad,
            Op::SStore,
            Op::Transfer,
            Op::Call,
            Op::Create,
            Op::Jump(0),
            Op::JumpI(0),
            Op::Log,
            Op::Revert,
        ] {
            // terminators are free, everything else costs something
            let free = matches!(op, Op::Stop | Op::Revert);
            assert_eq!(s.cost(&op).get() == 0, free, "{op:?}");
        }
    }

    #[test]
    fn matches_legacy_op_costs() {
        // Op::gas_cost is the EIP-150 schedule (kept for convenience)
        let s = GasSchedule::eip150();
        for op in [Op::SLoad, Op::SStore, Op::Call, Op::Balance, Op::Transfer] {
            assert_eq!(s.cost(&op), op.gas_cost(), "{op:?}");
        }
    }
}
