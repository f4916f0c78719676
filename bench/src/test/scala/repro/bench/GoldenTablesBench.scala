package repro.bench

import repro.{Golden, SparkSpec}
import repro.exp.{ImdbExperiment, LongTailExperiment, SwdeExperiment}

/** Every table at bench scale, rendered from `BenchRuns`' runs in a fixed
  * order, against the committed `golden/tables.txt`.
  */
class GoldenTablesBench extends SparkSpec {

  test("golden: every table at bench scale is unchanged") {
    val (swde, imdb, srs) = (BenchRuns.swde, BenchRuns.imdb, BenchRuns.longtail)
    val blocks = Vector(
      SwdeExperiment.renderTable1(BenchRuns.verticals),
      ImdbExperiment.renderTable2(imdb),
      SwdeExperiment.renderTable3(swde),
      SwdeExperiment.renderAnnotatedFraction(swde),
      SwdeExperiment.renderTable4(swde),
      ImdbExperiment.renderTable5(imdb),
      ImdbExperiment.renderTable6(imdb),
      ImdbExperiment.renderTable7(imdb),
      LongTailExperiment.renderTable8(srs.map(LongTailExperiment.table8Row(_))),
      LongTailExperiment.renderTable9(srs),
      LongTailExperiment.renderFigure6(srs),
      LongTailExperiment.renderEntityRatio(srs))
    Golden.check("tables.txt", blocks.mkString("", "\n\n", "\n"))
  }
}
