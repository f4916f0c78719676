package repro.bench

import repro.SparkSpec
import repro.exp.ImdbExperiment

/** Table 2: composition of the movie seed KB (paper: Person 7.67M/15,
  * Film 0.43M/19, TV Episode 1.09M/18 at 85M triples; ours is the same
  * shape at synthetic scale — episodes outnumber films, persons dominate).
  */
class Table2KbBench extends SparkSpec {

  private lazy val kb = BenchRuns.imdb.imdb.kb

  test("Table 2: KB composition by entity type") {
    println(ImdbExperiment.renderTable2(BenchRuns.imdb))
    assert(kb.triples.map(_.subjectType).toSet == Set("Person", "Film", "TVEpisode"))
  }
  test("episodes outnumber films in the KB (over-represented type)") {
    val byType = kb.typeOf.values.groupBy(identity).view.mapValues(_.size).toMap
    assert(byType("TVEpisode") > byType("Film"))
  }
  test("KB has multiple predicates per entity type") {
    val personPreds = kb.triples.filter(_.subjectType == "Person").map(_.predicate).distinct
    assert(personPreds.size >= 4, s"personPreds=$personPreds")
  }
}
