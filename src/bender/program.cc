#include "bender/program.hh"

#include <utility>

namespace fcdram {

ProgramBuilder::ProgramBuilder(const SpeedGrade &speed,
                               const TimingParams &timing)
    : speed_(speed), timing_(timing), nowNs_(0.0)
{
}

ProgramBuilder &
ProgramBuilder::append(Command command, Ns gapNs)
{
    if (!program_.commands.empty())
        nowNs_ += speed_.quantizedGapNs(gapNs);
    command.issueNs = nowNs_;
    program_.commands.push_back(std::move(command));
    return *this;
}

ProgramBuilder &
ProgramBuilder::act(BankId bank, RowId row, Ns gapNs)
{
    Command command;
    command.type = CommandType::Act;
    command.bank = bank;
    command.row = row;
    return append(std::move(command), gapNs);
}

ProgramBuilder &
ProgramBuilder::pre(BankId bank, Ns gapNs)
{
    Command command;
    command.type = CommandType::Pre;
    command.bank = bank;
    return append(std::move(command), gapNs);
}

ProgramBuilder &
ProgramBuilder::write(BankId bank, RowId row, BitVector data, Ns gapNs)
{
    Command command;
    command.type = CommandType::Wr;
    command.bank = bank;
    command.row = row;
    command.data = std::move(data);
    return append(std::move(command), gapNs);
}

ProgramBuilder &
ProgramBuilder::read(BankId bank, RowId row, Ns gapNs)
{
    Command command;
    command.type = CommandType::Rd;
    command.bank = bank;
    command.row = row;
    return append(std::move(command), gapNs);
}

ProgramBuilder &
ProgramBuilder::actNominal(BankId bank, RowId row)
{
    return act(bank, row, timing_.tRp);
}

ProgramBuilder &
ProgramBuilder::preNominal(BankId bank)
{
    return pre(bank, timing_.tRas);
}

ProgramBuilder &
ProgramBuilder::readNominal(BankId bank, RowId row)
{
    return read(bank, row, timing_.tRcd);
}

ProgramBuilder &
ProgramBuilder::writeNominal(BankId bank, RowId row, BitVector data)
{
    return write(bank, row, std::move(data), timing_.tRcd);
}

Ns
ProgramBuilder::violatedGapNs() const
{
    return speed_.quantizedGapNs(kViolatedGapTargetNs);
}

Program
ProgramBuilder::build()
{
    return std::move(program_);
}

Program
doubleActProgram(const SpeedGrade &speed, BankId bank, RowId first,
                 RowId second)
{
    return ProgramBuilder(speed)
        .act(bank, first, 0.0)
        .pre(bank, kViolatedGapTargetNs)
        .act(bank, second, kViolatedGapTargetNs)
        .preNominal(bank)
        .build();
}

Program
copyProgram(const SpeedGrade &speed, BankId bank, RowId src, RowId dst)
{
    return ProgramBuilder(speed)
        .act(bank, src, 0.0)
        .pre(bank, TimingParams::nominal().tRas)
        .act(bank, dst, kViolatedGapTargetNs)
        .preNominal(bank)
        .build();
}

Program
fracProgram(const SpeedGrade &speed, BankId bank, RowId helper,
            RowId target)
{
    return ProgramBuilder(speed)
        .act(bank, helper, 0.0)
        .pre(bank, kViolatedGapTargetNs)
        .act(bank, target, kViolatedGapTargetNs)
        .pre(bank, kViolatedGapTargetNs)
        .build();
}

Program
hostReadProgram(const SpeedGrade &speed, BankId bank, RowId row)
{
    return ProgramBuilder(speed)
        .act(bank, row, 0.0)
        .readNominal(bank, row)
        .preNominal(bank)
        .build();
}

Program
hostWriteProgram(const SpeedGrade &speed, BankId bank, RowId row)
{
    return ProgramBuilder(speed)
        .act(bank, row, 0.0)
        .writeNominal(bank, row, BitVector())
        .preNominal(bank)
        .build();
}

} // namespace fcdram
