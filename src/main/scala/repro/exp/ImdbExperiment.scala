package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.{Ceres, Metrics, RelationAnnot}
import repro.web.ImdbWorld

/** The IMDb experiment (§5.4): Tables 5, 6 and 7 on the two-template
  * IMDb-lite site, comparing CERES-Full against CERES-Topic; Table 2 describes its seed KB.
  *
  * Person pages carry the `nm-` pageId prefix; extraction quality (Table 5)
  * is computed on the eval half, annotation quality (Table 6) on the train
  * half where annotations are made, topic identification (Table 7) on the
  * train half against renderer truth restricted to KB-covered topics.
  */
object ImdbExperiment {

  val Domains = Vector("Person", "Film/TV")

  case class Run(
      imdb: ImdbWorld.Imdb,
      trainIds: Set[String],
      evalIds: Set[String],
      full: Ceres.Result,
      topic: Ceres.Result,
  ) {
    def isPerson(pageId: String): Boolean = pageId.startsWith("nm-")
    def namePredOf(pageId: String): String = if (isPerson(pageId)) "name" else "title"
    def domainOf(pageId: String): String   = if (isPerson(pageId)) "Person" else "Film/TV"
    def inDomain(domain: String): String => Boolean = domainOf(_) == domain
  }

  def run(
      nFilms: Int = 120,
      nEpisodes: Int = 160,
      nPersons: Int = 260,
      nPersonPages: Int = 120,
      nTitlePages: Int = 200,
      seed: Long = 55,
  )(implicit spark: SparkSession): Run = {
    val imdb = ImdbWorld.build(nFilms, nEpisodes, nPersons, nPersonPages, nTitlePages, seed)
    val pages = spark.createDataset(imdb.site.pages)(org.apache.spark.sql.Encoders.product)
    // 50/50 split within each template so both halves see both page types.
    val (person, title) = imdb.site.pages.map(_.pageId).sorted.partition(_.startsWith("nm-"))
    val trainIds = (person.take(person.size / 2) ++ title.take(title.size / 2)).toSet
    val evalIds  = imdb.site.pages.map(_.pageId).toSet -- trainIds
    val full  = Ceres.run(pages, trainIds, imdb.kb, Ceres.Config(mode = Ceres.Full))
    val topic = Ceres.run(pages, trainIds, imdb.kb, Ceres.Config(mode = Ceres.TopicOnly))
    Run(imdb, trainIds, evalIds, full, topic)
  }

  /** Table 5: per-predicate extraction PRF on the eval half, per domain. */
  def table5(r: Run, result: Ceres.Result, domain: String): Map[String, Metrics.PRF] = {
    val in = r.inDomain(domain)
    Metrics.extractionPRF(result.extractions.filter(e => in(e.pageId)),
      r.imdb.site.truth.filter(t => in(t.pageId)), r.namePredOf, r.evalIds.filter(in))
  }

  /** Table 6: per-predicate annotation PRF on the train half, per domain. */
  def table6(r: Run, result: Ceres.Result, domain: String): Map[String, Metrics.PRF] = {
    val in = r.inDomain(domain)
    val annots = result.annotations.filter(a => in(a.pageId) && a.predicate != RelationAnnot.NamePred)
    Metrics.annotationPRF(annots, r.imdb.site.truth.filter(t => in(t.pageId)),
      r.imdb.site.topics.filter(t => in(t.pageId)), r.imdb.kb, r.namePredOf, r.trainIds.filter(in))
  }

  /** Table 7: topic identification accuracy per domain (train half). */
  def table7(r: Run, domain: String): Metrics.PRF = {
    val in = r.inDomain(domain)
    Metrics.topicPRF(r.full.topics.filter(t => in(t.pageId)),
      r.imdb.site.topics.filter(t => in(t.pageId)), r.imdb.kb, r.trainIds.filter(in))
  }

  def renderTable2(r: Run): String =
    TableFmt.render("Table 2: seed KB composition", Vector("Entity Type", "#Instances", "#Predicates"),
      r.imdb.kb.triples.groupBy(_.subjectType).toVector.sortBy(_._1).map { case (t, ts) =>
        Vector(t, ts.map(_.subjectId).distinct.size.toString, ts.map(_.predicate).distinct.size.toString)
      })

  def renderTable5(r: Run): String = renderTopicVsFull(r, "Table 5", "extraction", table5)

  def renderTable6(r: Run): String = renderTopicVsFull(r, "Table 6", "annotation", table6)

  def renderTable7(r: Run): String =
    TableFmt.render("Table 7: topic identification", Vector("Domain", "P", "R", "F1"),
      Domains.map(d => TableFmt.prfRow(Vector(d), table7(r, d))))

  /** Per domain, CERES-Topic then CERES-Full per predicate with "ALL" last;
    * zeros where a system has no score.
    */
  private def renderTopicVsFull(r: Run, table: String, what: String,
      prfs: (Run, Ceres.Result, String) => Map[String, Metrics.PRF]): String =
    Domains.map { dom =>
      val (topic, full) = (prfs(r, r.topic, dom), prfs(r, r.full, dom))
      val preds = (topic.keySet ++ full.keySet).toVector.sorted.filterNot(_ == "ALL") :+ "ALL"
      def get(m: Map[String, Metrics.PRF], p: String) = m.getOrElse(p, Metrics.PRF(p, 0, 0, 0))
      TableFmt.render(s"$table ($dom): $what",
        Vector("Predicate", "Topic-P", "Topic-R", "Topic-F1", "Full-P", "Full-R", "Full-F1"),
        preds.map(p => TableFmt.prfRow(TableFmt.prfRow(Vector(p), get(topic, p)), get(full, p))))
    }.mkString("\n")
}
