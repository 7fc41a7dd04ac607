#include "bender/bender.hh"

#include "analog/rowhammer.hh"
#include "common/rng.hh"
#include "dram/address.hh"
#include "obs/telemetry.hh"

namespace fcdram {

DramBender::DramBender(Chip &chip, std::uint64_t sessionSeed,
                       ExecMode mode)
    : chip_(chip), sessionSeed_(sessionSeed), trialCounter_(0),
      mode_(mode),
      ones_(static_cast<std::size_t>(chip.geometry().columns), true),
      zeros_(static_cast<std::size_t>(chip.geometry().columns), false)
{
}

ProgramBuilder
DramBender::newProgram() const
{
    return ProgramBuilder(chip_.profile().speed);
}

ExecResult
DramBender::execute(const Program &program)
{
    Executor executor(chip_,
                      hashCombine(sessionSeed_, ++trialCounter_),
                      TimingParams::nominal(), mode_);
    return executor.run(program);
}

void
DramBender::writeRow(BankId bank, RowId row, const BitVector &data)
{
    obs::Telemetry &tel = obs::global();
    if (tel.metricsOn())
        tel.add(tel.counter("bender.row_writes"));
    chip_.bank(bank).writeRowBits(row, data);
}

BitVector
DramBender::readRow(BankId bank, RowId row)
{
    obs::Telemetry &tel = obs::global();
    if (tel.metricsOn())
        tel.add(tel.counter("bender.row_reads"));
    const obs::DramLabel label("RowRead");
    ExecResult result =
        execute(hostReadProgram(chip_.profile().speed, bank, row));
    return result.reads.front();
}

void
DramBender::setTemperature(Celsius temperature)
{
    chip_.setTemperature(temperature);
}

void
DramBender::hammerRow(BankId bank, RowId row, std::uint64_t activations)
{
    const GeometryConfig &geometry = chip_.geometry();
    const RowAddress address = decomposeRow(geometry, row);
    Bank &bank_ref = chip_.bank(bank);
    Subarray &subarray = bank_ref.subarray(address.subarray);
    const RowId physical = subarray.physicalRow(address.localRow);
    const RowHammerParams params;
    Rng rng(hashCombine(sessionSeed_, ++trialCounter_));

    auto disturb = [&](RowId victim_physical) {
        const RowId victim_local = subarray.logicalRow(victim_physical);
        const RowId victim =
            composeRow(geometry, address.subarray, victim_local);
        for (ColId col = 0; col < static_cast<ColId>(geometry.columns);
             ++col) {
            const double vulnerability =
                chip_.model().variation().hammerVulnerability(
                    bank, victim, col);
            const double p = hammerFlipProbability(params, activations,
                                                   vulnerability);
            if (p > 0.0 && rng.bernoulli(p)) {
                // Disturbance drains the victim cell toward VDD/2;
                // model as a destructive bit flip.
                bank_ref.setCellVolt(victim, col,
                                     bank_ref.cellVolt(victim, col) >
                                             kVddHalf
                                         ? kGnd
                                         : kVdd);
            }
        }
    };

    if (physical > 0)
        disturb(physical - 1);
    if (static_cast<int>(physical) + 1 < geometry.rowsPerSubarray)
        disturb(physical + 1);
}

} // namespace fcdram
