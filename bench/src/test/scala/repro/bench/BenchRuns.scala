package repro.bench

import repro.SparkSpec
import repro.exp.{ImdbExperiment, LongTailExperiment, SwdeExperiment}
import repro.web.Verticals

/** Shared lazily-computed experiment runs: the bench suites for Tables 3+4
  * (SWDE), 5+6+7 (IMDb) and 8+9+Fig6 (long-tail) each reuse one run.
  *
  * Sizes are ~1/50 of the paper's page counts (DESIGN.md §6), fixed
  * because `golden/tables.txt` holds the tables at this one scale.
  */
object BenchRuns {
  private implicit lazy val spark: org.apache.spark.sql.SparkSession = SparkSpec.shared

  val SwdePages     = 120
  val LongTailScale = 0.5

  lazy val verticals: Vector[Verticals.VerticalData] = Verticals.all(SwdePages)

  lazy val swde: Vector[SwdeExperiment.SiteRun] = SwdeExperiment.run(pagesPerSite = SwdePages)

  lazy val imdb: ImdbExperiment.Run = ImdbExperiment.run()

  lazy val longtail: Vector[LongTailExperiment.SiteResult] = LongTailExperiment.run(scale = LongTailScale)
}
