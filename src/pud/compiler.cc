#include "pud/compiler.hh"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>

namespace fcdram::pud {

int
MicroProgram::loadOps() const
{
    return static_cast<int>(std::count_if(
        ops.begin(), ops.end(), [](const MicroOp &op) {
            return op.kind == MicroOpKind::Load;
        }));
}

int
MicroProgram::wideOps() const
{
    return static_cast<int>(std::count_if(
        ops.begin(), ops.end(), [](const MicroOp &op) {
            return op.kind == MicroOpKind::Wide;
        }));
}

int
MicroProgram::notOps() const
{
    return static_cast<int>(std::count_if(
        ops.begin(), ops.end(), [](const MicroOp &op) {
            return op.kind == MicroOpKind::Not;
        }));
}

int
MicroProgram::majOps() const
{
    return static_cast<int>(std::count_if(
        ops.begin(), ops.end(), [](const MicroOp &op) {
            return op.kind == MicroOpKind::Maj;
        }));
}

const char *
toString(ComputeBackend backend)
{
    switch (backend) {
      case ComputeBackend::NandNor: return "nand-nor";
      case ComputeBackend::SimraMaj: return "simra-maj";
    }
    return "?";
}

namespace {

/**
 * Lowering state. Gates are memoized on (family, sorted operand
 * values), so a NAND over the same operands as an existing AND
 * attaches its value to that gate's reference side instead of
 * emitting a second execution, and identical gates reached through
 * different expression paths collapse to one μop.
 */
class Lowering
{
  public:
    Lowering(const ExprPool &pool, const CompilerOptions &options)
        : pool_(pool), options_(options)
    {
        assert(options_.maxGateInputs >= 2);
    }

    MicroProgram run(ExprId root)
    {
        program_.backend = options_.backend;
        program_.result = lower(root);
        assignWaves();
        program_.numValues = nextValue_;
        return std::move(program_);
    }

  private:
    ValueId newValue() { return nextValue_++; }

    ValueId lower(ExprId id)
    {
        const auto memo = exprMemo_.find(id);
        if (memo != exprMemo_.end())
            return memo->second;
        const ExprNode &node = pool_.node(id);
        ValueId value = kNoValue;
        switch (node.kind) {
          case ExprKind::Column:
            value = lowerColumn(node.column);
            break;
          case ExprKind::Not:
            value = lowerNot(lower(node.operands.front()));
            break;
          case ExprKind::And:
            value = reduce(BoolOp::And, lowerAll(node.operands),
                           /*invert=*/false);
            break;
          case ExprKind::Or:
            value = reduce(BoolOp::Or, lowerAll(node.operands),
                           /*invert=*/false);
            break;
          case ExprKind::Nand:
            value = reduce(BoolOp::And, lowerAll(node.operands),
                           /*invert=*/true);
            break;
          case ExprKind::Nor:
            value = reduce(BoolOp::Or, lowerAll(node.operands),
                           /*invert=*/true);
            break;
          case ExprKind::Xor:
            value = lowerXor(lowerAll(node.operands));
            break;
          case ExprKind::Maj:
            value = lowerMaj(lowerAll(node.operands));
            break;
        }
        exprMemo_.emplace(id, value);
        return value;
    }

    std::vector<ValueId> lowerAll(const std::vector<ExprId> &operands)
    {
        std::vector<ValueId> values;
        values.reserve(operands.size());
        for (const ExprId operand : operands)
            values.push_back(lower(operand));
        return values;
    }

    ValueId lowerColumn(const std::string &name)
    {
        const auto it = columnMemo_.find(name);
        if (it != columnMemo_.end())
            return it->second;
        MicroOp op;
        op.kind = MicroOpKind::Load;
        op.column = name;
        op.computeValue = newValue();
        program_.ops.push_back(op);
        columnMemo_.emplace(name, op.computeValue);
        return op.computeValue;
    }

    ValueId lowerNot(ValueId input)
    {
        const GateKey key{BoolOp::Not, {input}};
        const auto it = gateMemo_.find(key);
        if (it != gateMemo_.end())
            return program_.ops[it->second].computeValue;
        MicroOp op;
        op.kind = MicroOpKind::Not;
        op.family = BoolOp::Not;
        op.inputs = {input};
        op.computeValue = newValue();
        gateMemo_.emplace(key, program_.ops.size());
        program_.ops.push_back(op);
        return op.computeValue;
    }

    /**
     * One wide gate over <= maxGateInputs operands. @p invert selects
     * the free reference-side (NAND/NOR) result on the NandNor
     * backend; the SimraMaj backend has no free inverted twin and
     * pays an explicit NOT instead.
     */
    ValueId emitGate(BoolOp family, std::vector<ValueId> inputs,
                     bool invert)
    {
        assert(static_cast<int>(inputs.size()) >= 2);
        assert(static_cast<int>(inputs.size()) <=
               options_.maxGateInputs);
        std::sort(inputs.begin(), inputs.end());
        inputs.erase(std::unique(inputs.begin(), inputs.end()),
                     inputs.end());
        if (inputs.size() == 1)
            return invert ? lowerNot(inputs.front()) : inputs.front();
        if (options_.backend == ComputeBackend::SimraMaj) {
            const ValueId direct =
                emitMajGate(family, std::move(inputs));
            return invert ? lowerNot(direct) : direct;
        }
        const GateKey key{family, inputs};
        const auto it = gateMemo_.find(key);
        std::size_t opIndex;
        if (it != gateMemo_.end()) {
            opIndex = it->second;
        } else {
            MicroOp op;
            op.kind = MicroOpKind::Wide;
            op.family = family;
            op.inputs = std::move(inputs);
            opIndex = program_.ops.size();
            gateMemo_.emplace(key, opIndex);
            program_.ops.push_back(std::move(op));
        }
        MicroOp &op = program_.ops[opIndex];
        ValueId &side = invert ? op.referenceValue : op.computeValue;
        if (side == kNoValue)
            side = newValue();
        return side;
    }

    /**
     * One SiMRA MAJ gate (Buddy-RAM lowering): @p family picks the
     * constant bias — And: zeros outnumber ones by width-1 (output 1
     * only when every operand is 1), Or: the reverse, Maj3/Maj5:
     * balanced (pure majority; duplicates in @p inputs weight the
     * vote and are kept). The activation group pads to the next
     * power of two with one Frac tiebreaker plus balanced constant
     * pairs, which cancel in the majority.
     */
    ValueId emitMajGate(BoolOp family, std::vector<ValueId> inputs)
    {
        const GateKey key{family, inputs};
        const auto it = gateMemo_.find(key);
        std::size_t opIndex;
        if (it != gateMemo_.end()) {
            opIndex = it->second;
        } else {
            const int m = static_cast<int>(inputs.size());
            const bool pure =
                family == BoolOp::Maj3 || family == BoolOp::Maj5;
            const int bias = pure ? 0 : m - 1;
            const int cells = m + bias; // Odd: m odd (pure) or 2m-1.
            assert(cells % 2 == 1);
            int rows = 2;
            while (rows < cells + 1)
                rows *= 2;
            const int pad = (rows - cells - 1) / 2;
            MicroOp op;
            op.kind = MicroOpKind::Maj;
            op.family = family;
            op.inputs = std::move(inputs);
            op.constantOnes = (family == BoolOp::Or ? bias : 0) + pad;
            op.constantZeros = (family == BoolOp::And ? bias : 0) + pad;
            op.neutralRows = 1;
            op.activatedRows = rows;
            opIndex = program_.ops.size();
            gateMemo_.emplace(key, opIndex);
            program_.ops.push_back(std::move(op));
        }
        MicroOp &op = program_.ops[opIndex];
        if (op.computeValue == kNoValue)
            op.computeValue = newValue();
        return op.computeValue;
    }

    /**
     * Majority over an odd operand list. The SimraMaj backend hosts
     * it natively on one activation group; the NandNor basis expands
     * the sum-of-products form (every (m+1)/2-subset ANDed, ORed
     * together), the classical MAJ emulation cost that motivates the
     * SiMRA backend.
     */
    ValueId lowerMaj(std::vector<ValueId> values)
    {
        assert(values.size() % 2 == 1);
        std::sort(values.begin(), values.end());
        if (std::adjacent_find(values.begin(), values.end(),
                               std::not_equal_to<>()) == values.end())
            return values.front(); // All operands identical.
        if (options_.backend == ComputeBackend::SimraMaj) {
            const BoolOp family = values.size() <= 3 ? BoolOp::Maj3
                                                     : BoolOp::Maj5;
            return emitMajGate(family, std::move(values));
        }
        const std::size_t m = values.size();
        const std::size_t take = (m + 1) / 2;
        std::vector<ValueId> terms;
        std::vector<std::size_t> combo(take);
        for (std::size_t i = 0; i < take; ++i)
            combo[i] = i;
        while (true) {
            std::vector<ValueId> conj;
            conj.reserve(take);
            for (const std::size_t index : combo)
                conj.push_back(values[index]);
            terms.push_back(
                reduce(BoolOp::And, std::move(conj), false));
            // Next lexicographic combination of indices.
            std::size_t i = take;
            while (i > 0 && combo[i - 1] == m - take + (i - 1))
                --i;
            if (i == 0)
                break;
            ++combo[i - 1];
            for (std::size_t j = i; j < take; ++j)
                combo[j] = combo[j - 1] + 1;
        }
        return reduce(BoolOp::Or, std::move(terms), false);
    }

    static bool isPowerOfTwo(std::size_t v)
    {
        return v != 0 && (v & (v - 1)) == 0;
    }

    /** Largest power of two <= @p v (v >= 1). */
    static std::size_t floorPowerOfTwo(std::size_t v)
    {
        while (!isPowerOfTwo(v))
            v &= v - 1;
        return v;
    }

    /**
     * Tree-reduce an operand list through wide gates of up to
     * maxGateInputs inputs; the final gate yields the reference side
     * when @p invert is set (NAND/NOR of the whole list). The
     * NandNor substrate only activates N:N groups with N a power of
     * two, so its gate widths snap to powers of two; the MAJ basis
     * pads its activation group with balanced constants internally
     * and hosts any width.
     */
    ValueId reduce(BoolOp family, std::vector<ValueId> values,
                   bool invert)
    {
        assert(!values.empty());
        const bool pow2Only =
            options_.backend == ComputeBackend::NandNor;
        auto width = static_cast<std::size_t>(options_.maxGateInputs);
        if (pow2Only)
            width = floorPowerOfTwo(width);
        while (values.size() > 1) {
            if (values.size() <= width &&
                (!pow2Only || isPowerOfTwo(values.size())))
                return emitGate(family, std::move(values), invert);
            std::vector<ValueId> next;
            next.reserve(values.size() / width + 2);
            for (std::size_t i = 0; i < values.size();) {
                std::size_t n = std::min(width, values.size() - i);
                if (pow2Only)
                    n = floorPowerOfTwo(n);
                if (n <= 1) {
                    next.push_back(values[i]);
                    i += 1;
                    continue;
                }
                next.push_back(emitGate(
                    family,
                    {values.begin() + static_cast<std::ptrdiff_t>(i),
                     values.begin() +
                         static_cast<std::ptrdiff_t>(i + n)},
                    /*invert=*/false));
                i += n;
            }
            values = std::move(next);
        }
        return invert ? lowerNot(values.front()) : values.front();
    }

    /**
     * One XOR through the functionally-complete basis:
     * a ^ b = AND(OR(a, b), NAND(a, b)). On the NandNor backend the
     * NAND comes free from the reference rows of the AND(a, b) gate;
     * the SimraMaj backend pays a NOT for it.
     */
    ValueId xorPair(ValueId a, ValueId b)
    {
        const ValueId nand =
            emitGate(BoolOp::And, {a, b}, /*invert=*/true);
        const ValueId either =
            emitGate(BoolOp::Or, {a, b}, /*invert=*/false);
        return emitGate(BoolOp::And, {either, nand},
                        /*invert=*/false);
    }

    /**
     * Balanced-tree XOR reduction: pair adjacent operands level by
     * level, so an n-way XOR schedules in O(log n) waves. (A left
     * fold would chain n-1 dependent gates into an O(n)-deep — and
     * O(n)-wave — critical path.)
     */
    ValueId lowerXor(std::vector<ValueId> values)
    {
        assert(!values.empty());
        while (values.size() > 1) {
            std::vector<ValueId> next;
            next.reserve((values.size() + 1) / 2);
            for (std::size_t i = 0; i + 1 < values.size(); i += 2)
                next.push_back(xorPair(values[i], values[i + 1]));
            if (values.size() % 2 == 1)
                next.push_back(values.back());
            values = std::move(next);
        }
        return values.front();
    }

    void assignWaves()
    {
        std::map<ValueId, int> producerWave;
        int last = 0;
        for (MicroOp &op : program_.ops) {
            int wave = 0;
            for (const ValueId input : op.inputs)
                wave = std::max(wave, producerWave.at(input) + 1);
            op.wave = wave;
            last = std::max(last, wave);
            if (op.computeValue != kNoValue)
                producerWave[op.computeValue] = wave;
            if (op.referenceValue != kNoValue)
                producerWave[op.referenceValue] = wave;
        }
        program_.numWaves = program_.ops.empty() ? 0 : last + 1;
    }

    using GateKey = std::pair<BoolOp, std::vector<ValueId>>;

    const ExprPool &pool_;
    CompilerOptions options_;
    MicroProgram program_;
    ValueId nextValue_ = 0;
    std::map<ExprId, ValueId> exprMemo_;
    std::map<std::string, ValueId> columnMemo_;
    std::map<GateKey, std::size_t> gateMemo_;
};

} // namespace

Compiler::Compiler(CompilerOptions options) : options_(options)
{
}

MicroProgram
Compiler::compile(const ExprPool &pool, ExprId root) const
{
    Lowering lowering(pool, options_);
    return lowering.run(root);
}

std::vector<BitVector>
goldenValues(const MicroProgram &program,
             const std::map<std::string, BitVector> &columns)
{
    std::vector<BitVector> values(program.numValues);
    for (const MicroOp &op : program.ops) {
        BitVector direct;
        switch (op.kind) {
          case MicroOpKind::Load:
            direct = columns.at(op.column);
            break;
          case MicroOpKind::Not:
            direct = ~values[op.inputs.front()];
            break;
          case MicroOpKind::Wide: {
            direct = values[op.inputs.front()];
            for (std::size_t i = 1; i < op.inputs.size(); ++i) {
                direct = op.family == BoolOp::And
                             ? direct & values[op.inputs[i]]
                             : direct | values[op.inputs[i]];
            }
            break;
          }
          case MicroOpKind::Maj: {
            const std::size_t bits =
                values[op.inputs.front()].size();
            direct = BitVector(bits);
            for (std::size_t col = 0; col < bits; ++col) {
                int ones = op.constantOnes;
                for (const ValueId input : op.inputs)
                    ones += values[input].get(col) ? 1 : 0;
                // Neutral (VDD/2) cells contribute half a vote each.
                direct.set(col, 2 * ones + op.neutralRows >
                                    op.activatedRows);
            }
            break;
          }
        }
        if (op.referenceValue != kNoValue)
            values[op.referenceValue] = ~direct;
        if (op.computeValue != kNoValue)
            values[op.computeValue] = std::move(direct);
    }
    return values;
}

} // namespace fcdram::pud
